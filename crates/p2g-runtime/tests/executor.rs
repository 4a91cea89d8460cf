//! Tests of the executor on multi-instance dispatch units (merged
//! fetches, segmented `catch_unwind`, merged range stores, one body call
//! per instance)
//! and of online granularity adaptation ([`RunLimits::adaptive`]): results
//! must equal the paper's sequences, fault containment must stay
//! per-instance, and every trace invariant must keep holding.

use p2g_field::{Age, Buffer, Region, Value};
use p2g_graph::spec::{mul_sum_example, AgeExpr, FetchDecl, IndexSel, ProgramSpec};
use p2g_runtime::{
    AdaptiveGranularity, FaultPolicy, NodeBuilder, Program, RunLimits, Termination, TraceEvent,
};

fn build_program() -> Program {
    build_program_for(mul_sum_example())
}

fn build_program_for(spec: ProgramSpec) -> Program {
    let mut program = Program::new(spec).unwrap();
    program.body("init", |ctx| {
        ctx.store(
            0,
            Buffer::from_vec((0..5).map(|i| i + 10).collect::<Vec<i32>>()),
        );
        Ok(())
    });
    program.body("mul2", |ctx| {
        let v = match ctx.input(0).value(0) {
            Value::I32(v) => v,
            other => return Err(format!("unexpected type {other:?}")),
        };
        ctx.store(0, Buffer::from_vec(vec![v.wrapping_mul(2)]));
        Ok(())
    });
    program.body("plus5", |ctx| {
        let v = match ctx.input(0).value(0) {
            Value::I32(v) => v,
            other => return Err(format!("unexpected type {other:?}")),
        };
        ctx.store(0, Buffer::from_vec(vec![v.wrapping_add(5)]));
        Ok(())
    });
    program.body("print", |_| Ok(()));
    program
}

fn i32s(fields: &p2g_runtime::node::FieldStore, name: &str, age: u64) -> Vec<i32> {
    fields
        .fetch(name, Age(age), &Region::all(1))
        .unwrap_or_else(|| panic!("{name} age {age} missing"))
        .as_i32()
        .unwrap()
        .to_vec()
}

/// The paper's sequences survive chunked units unchanged and every trace
/// invariant holds (merged store events still carry analyzable regions).
#[test]
fn batched_execution_matches_scalar_results() {
    let mut program = build_program();
    program.set_chunk_size("mul2", 5).set_chunk_size("plus5", 5);
    let (report, fields) = NodeBuilder::new(program)
        .workers(2)
        .launch(RunLimits::ages(3).with_trace())
        .and_then(|n| n.collect())
        .unwrap();
    assert_eq!(report.termination, Termination::Quiescent);
    p2g_runtime::trace_check::all(&report);
    assert_eq!(i32s(&fields, "m_data", 0), vec![10, 11, 12, 13, 14]);
    assert_eq!(i32s(&fields, "p_data", 0), vec![20, 22, 24, 26, 28]);
    assert_eq!(i32s(&fields, "m_data", 1), vec![25, 27, 29, 31, 33]);
    assert_eq!(i32s(&fields, "p_data", 1), vec![50, 54, 58, 62, 66]);
    assert_eq!(i32s(&fields, "m_data", 2), vec![55, 59, 63, 67, 71]);
    let mul2 = report.instruments.kernel("mul2").unwrap();
    assert!(mul2.units < mul2.instances, "mul2 must run chunked units");
}

/// A kernel has one body: a chunked unit runs it once per instance it
/// holds, never once per unit, and produces the same results.
#[test]
fn chunked_unit_runs_each_body_once() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    let calls = Arc::new(AtomicUsize::new(0));
    let mut program = build_program();
    program.set_chunk_size("mul2", 5);
    let c = calls.clone();
    program.body("mul2", move |ctx| {
        c.fetch_add(1, Ordering::SeqCst);
        let v = match ctx.input(0).value(0) {
            Value::I32(v) => v,
            other => return Err(format!("unexpected type {other:?}")),
        };
        ctx.store(0, Buffer::from_vec(vec![v.wrapping_mul(2)]));
        Ok(())
    });
    let (report, fields) = NodeBuilder::new(program)
        .workers(2)
        .launch(RunLimits::ages(3).with_trace())
        .and_then(|n| n.collect())
        .unwrap();
    assert_eq!(report.termination, Termination::Quiescent);
    p2g_runtime::trace_check::all(&report);
    assert_eq!(i32s(&fields, "p_data", 0), vec![20, 22, 24, 26, 28]);
    assert_eq!(i32s(&fields, "p_data", 1), vec![50, 54, 58, 62, 66]);
    assert_eq!(i32s(&fields, "m_data", 2), vec![55, 59, 63, 67, 71]);
    let mul2 = report.instruments.kernel("mul2").unwrap();
    assert_eq!(mul2.instances, 15, "5 instances at each of 3 ages");
    assert!(mul2.units < mul2.instances, "mul2 must run chunked units");
    assert_eq!(
        calls.load(Ordering::SeqCst) as u64,
        mul2.instances,
        "the body runs once per instance"
    );
}

/// A fetch whose region names no index variable is the same for every
/// instance, so a chunked unit fetches it once: every instance's
/// `ctx.input` for it is one shared buffer, and the per-instance fetch
/// behind it still reads the instance's own element.
#[test]
fn chunked_unit_fetches_an_invariant_region_once() {
    use std::collections::{BTreeMap, HashSet};
    use std::sync::{Arc, Mutex};
    let mut spec = mul_sum_example();
    let m_data = spec.field_by_name("m_data").unwrap();
    let mul2 = spec.kernel_by_name("mul2").unwrap();
    // mul2 fetches the whole m_data(a) first, then its own m_data(a)[x].
    spec.kernels[mul2.idx()].fetches.insert(
        0,
        FetchDecl {
            field: m_data,
            age: AgeExpr::Rel(0),
            dims: vec![IndexSel::All],
        },
    );
    let mut program = build_program_for(spec);
    program.set_chunk_size("mul2", 5);
    let seen: Arc<Mutex<BTreeMap<u64, HashSet<usize>>>> = Arc::default();
    let s = seen.clone();
    program.body("mul2", move |ctx| {
        let whole = ctx.input(0);
        let own = ctx.input(1).value(0);
        assert_eq!(whole.len(), 5);
        assert_eq!(whole.value(ctx.index(0)), own);
        s.lock()
            .unwrap()
            .entry(ctx.age().0)
            .or_default()
            .insert(std::ptr::from_ref(whole) as usize);
        let Value::I32(v) = own else {
            return Err(format!("unexpected type {own:?}"));
        };
        ctx.store(0, Buffer::from_vec(vec![v.wrapping_mul(2)]));
        Ok(())
    });
    let (report, fields) = NodeBuilder::new(program)
        .workers(2)
        .launch(RunLimits::ages(3).with_trace())
        .and_then(|n| n.collect())
        .unwrap();
    assert_eq!(report.termination, Termination::Quiescent);
    p2g_runtime::trace_check::all(&report);
    assert_eq!(i32s(&fields, "p_data", 0), vec![20, 22, 24, 26, 28]);
    assert_eq!(i32s(&fields, "p_data", 1), vec![50, 54, 58, 62, 66]);
    let k = report.instruments.kernel("mul2").unwrap();
    assert_eq!(
        (k.units, k.instances),
        (3, 15),
        "one unit of 5 per age: all of an age's instances wait on its whole m_data"
    );
    let seen = seen.lock().unwrap();
    assert_eq!(seen.len(), 3);
    for (age, addrs) in seen.iter() {
        assert_eq!(addrs.len(), 1, "age {age}: one copy per unit");
    }
}

/// Per-instance fault containment in a chunked unit: one failing
/// instance inside a batch poisons only its own stores — its batch peers'
/// results land normally and the run degrades instead of aborting.
#[test]
fn failing_instance_in_batch_poisons_only_itself() {
    let mut program = build_program();
    program.set_chunk_size("mul2", 5);
    program.body("mul2", |ctx| {
        let v = match ctx.input(0).value(0) {
            Value::I32(v) => v,
            other => return Err(format!("unexpected type {other:?}")),
        };
        if ctx.index(0) == 2 {
            return Err("instance 2 always fails".into());
        }
        ctx.store(0, Buffer::from_vec(vec![v.wrapping_mul(2)]));
        Ok(())
    });
    program.set_fault_policy("mul2", FaultPolicy::default().poison());
    let (report, fields) = NodeBuilder::new(program)
        .workers(2)
        .launch(RunLimits::ages(1).with_trace())
        .and_then(|n| n.collect())
        .unwrap();
    assert_eq!(report.termination, Termination::Degraded);
    p2g_runtime::trace_check::all(&report);
    let p = fields.field_by_name("p_data").unwrap();
    for x in [0usize, 1, 3, 4] {
        assert_eq!(
            p.fetch_element(Age(0), &[x]).unwrap(),
            Value::I32((10 + x as i32) * 2),
            "surviving batch peer {x} must have stored"
        );
    }
    assert!(
        p.fetch_element(Age(0), &[2]).is_err(),
        "the failed instance's store must be absent"
    );
}

/// A panic inside a unit's body segment is contained to the panicking
/// instance; completed peers keep their outcomes (bodies never re-run,
/// observed via the write-once guarantee holding).
#[test]
fn panic_in_batch_contained_to_one_instance() {
    let mut program = build_program();
    program.set_chunk_size("mul2", 5);
    program.body("mul2", |ctx| {
        let v = match ctx.input(0).value(0) {
            Value::I32(v) => v,
            other => return Err(format!("unexpected type {other:?}")),
        };
        assert!(ctx.index(0) != 3, "boom at 3");
        ctx.store(0, Buffer::from_vec(vec![v.wrapping_mul(2)]));
        Ok(())
    });
    program.set_fault_policy("mul2", FaultPolicy::default().poison());
    let (report, fields) = NodeBuilder::new(program)
        .workers(1)
        .launch(RunLimits::ages(1).with_trace())
        .and_then(|n| n.collect())
        .unwrap();
    assert_eq!(report.termination, Termination::Degraded);
    p2g_runtime::trace_check::all(&report);
    let p = fields.field_by_name("p_data").unwrap();
    for x in [0usize, 1, 2, 4] {
        assert_eq!(
            p.fetch_element(Age(0), &[x]).unwrap(),
            Value::I32((10 + x as i32) * 2)
        );
    }
    assert!(p.fetch_element(Age(0), &[3]).is_err());
}

/// Retryable failures in a chunked unit re-dispatch as one retry unit and
/// eventually succeed, leaving complete results.
#[test]
fn batched_failures_retry_to_success() {
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;
    let attempts = Arc::new(AtomicU32::new(0));
    let mut program = build_program();
    program.set_chunk_size("mul2", 5);
    let a = attempts.clone();
    program.body("mul2", move |ctx| {
        let v = match ctx.input(0).value(0) {
            Value::I32(v) => v,
            other => return Err(format!("unexpected type {other:?}")),
        };
        if ctx.index(0) == 1 && a.fetch_add(1, Ordering::SeqCst) == 0 {
            return Err("transient".into());
        }
        ctx.store(0, Buffer::from_vec(vec![v.wrapping_mul(2)]));
        Ok(())
    });
    program.set_fault_policy(
        "mul2",
        FaultPolicy::retries(2).with_backoff(
            std::time::Duration::from_millis(1),
            std::time::Duration::from_millis(2),
        ),
    );
    let mul2 = program.spec().kernel_by_name("mul2").unwrap();
    let (report, fields) = NodeBuilder::new(program)
        .workers(2)
        .launch(RunLimits::ages(1).with_trace())
        .and_then(|n| n.collect())
        .unwrap();
    assert_eq!(report.termination, Termination::Quiescent);
    p2g_runtime::trace_check::all(&report);
    assert_eq!(i32s(&fields, "p_data", 0), vec![20, 22, 24, 26, 28]);
    assert!(report.instruments.total_retries() >= 1);
    // Every body start carries its unit's attempt: the failed instance
    // ran at attempts 0 and 1, its chunk peers only at 0.
    let mut starts: Vec<(Vec<usize>, u32)> = report
        .trace
        .as_ref()
        .unwrap()
        .of_kind("BodyStart")
        .filter_map(|r| match &r.event {
            TraceEvent::BodyStart {
                kernel,
                indices,
                attempt,
                ..
            } if *kernel == mul2 => Some((indices.clone(), *attempt)),
            _ => None,
        })
        .collect();
    starts.sort();
    assert_eq!(
        starts,
        vec![
            (vec![0], 0),
            (vec![1], 0),
            (vec![1], 1),
            (vec![2], 0),
            (vec![3], 0),
            (vec![4], 0),
        ]
    );
}

/// On a cluster-assigned node merged range stores dedup like single ones:
/// `mul2`'s outputs arrive from a peer first, then recovery hands `mul2`
/// to this node, whose five-instance unit re-stores all of them as one
/// merged store. The remote store and the reassignment travel the same
/// FIFO channel, so the replay is certain, not a race.
#[test]
fn merged_store_replays_idempotently_on_reassign() {
    use p2g_field::DimSel;
    use std::time::{Duration, Instant};
    let mut program = build_program();
    program.set_chunk_size("mul2", 5);
    let spec = program.spec().clone();
    let kernel = |name| spec.kernel_by_name(name).unwrap();
    let p_data = spec.field_by_name("p_data").unwrap();
    let node = NodeBuilder::new(program)
        .assigned([kernel("init"), kernel("plus5"), kernel("print")].into())
        .launch(RunLimits {
            hold_open: true,
            ..RunLimits::ages(1).with_trace()
        })
        .unwrap();
    node.inject_remote_store(
        p_data,
        Age(0),
        Region(vec![DimSel::Range { start: 0, len: 5 }]),
        Buffer::from_vec(vec![20i32, 22, 24, 26, 28]),
    );
    node.reassign(spec.kernels.iter().map(|k| k.id).collect());
    let start = Instant::now();
    while node.outstanding() > 0 && !node.is_stopped() {
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "node never went quiet"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    node.request_stop();
    let (report, fields, err) = node.finish();
    assert!(err.is_none(), "replay must dedup, got {err:?}");
    p2g_runtime::trace_check::all(&report);
    assert_eq!(i32s(&fields, "p_data", 0), vec![20, 22, 24, 26, 28]);
    let merged_replays = report
        .trace
        .as_ref()
        .unwrap()
        .of_kind("StoreApplied")
        .filter(|r| {
            matches!(
                &r.event,
                TraceEvent::StoreApplied {
                    kernel: Some(k),
                    elements: 0,
                    deduped: 5,
                    ..
                } if *k == kernel("mul2")
            )
        })
        .count();
    assert_eq!(merged_replays, 1, "one merged store, fully deduped");
}

/// `mul2` chunked five to a unit with `plus5` fused into it, where the
/// consumer fails at lane 2 — every time, or only the first time.
fn fused_program_failing_consumer(policy: FaultPolicy, once: bool) -> Program {
    use std::sync::atomic::{AtomicBool, Ordering};
    let failed = AtomicBool::new(false);
    let mut program = build_program();
    program.set_chunk_size("mul2", 5);
    program.fuse("mul2", "plus5").unwrap();
    program.body("plus5", move |ctx| {
        let v = match ctx.input(0).value(0) {
            Value::I32(v) => v,
            other => return Err(format!("unexpected type {other:?}")),
        };
        if ctx.index(0) == 2 && !(once && failed.swap(true, Ordering::SeqCst)) {
            return Err("consumer fails at lane 2".into());
        }
        ctx.store(0, Buffer::from_vec(vec![v.wrapping_add(5)]));
        Ok(())
    });
    program.set_fault_policy_all(policy.with_backoff(
        std::time::Duration::from_millis(1),
        std::time::Duration::from_millis(2),
    ));
    program
}

/// A fused pair fails as one instance: when the consumer fails, neither
/// its stores nor the producer's land, and poison takes the producer
/// instance and everything downstream of it — the unit's other lanes flow.
#[test]
fn fused_chunked_consumer_failure_poisons_the_pair() {
    let program = fused_program_failing_consumer(FaultPolicy::default().poison(), false);
    let (report, fields) = NodeBuilder::new(program)
        .workers(2)
        .launch(RunLimits::ages(2).with_trace())
        .and_then(|n| n.collect())
        .unwrap();
    assert_eq!(report.termination, Termination::Degraded);
    p2g_runtime::trace_check::all(&report);
    let p = fields.field_by_name("p_data").unwrap();
    let m = fields.field_by_name("m_data").unwrap();
    for x in [0usize, 1, 3, 4] {
        let doubled = (10 + x as i32) * 2;
        assert_eq!(p.fetch_element(Age(0), &[x]).unwrap(), Value::I32(doubled));
        assert_eq!(
            m.fetch_element(Age(1), &[x]).unwrap(),
            Value::I32(doubled + 5)
        );
    }
    assert!(
        p.fetch_element(Age(0), &[2]).is_err(),
        "the producer's store must not land"
    );
    assert!(
        m.fetch_element(Age(1), &[2]).is_err(),
        "the consumer's store must not land"
    );
    let poisoned = report.instruments.poisoned_instances();
    for (kernel, age) in [("mul2", 0), ("plus5", 0), ("mul2", 1), ("plus5", 1)] {
        assert_eq!(
            poisoned.get(&(kernel.to_string(), age)),
            Some(&vec![vec![2]]),
            "{kernel}@{age}"
        );
    }
}

/// A retry of a fused pair re-runs both bodies and converges to the
/// fault-free results.
#[test]
fn fused_chunked_consumer_failure_retries_the_pair() {
    let program = fused_program_failing_consumer(FaultPolicy::retries(1), true);
    let (report, fields) = NodeBuilder::new(program)
        .workers(2)
        .launch(RunLimits::ages(2).with_trace())
        .and_then(|n| n.collect())
        .unwrap();
    assert_eq!(report.termination, Termination::Quiescent);
    p2g_runtime::trace_check::all(&report);
    assert_eq!(i32s(&fields, "p_data", 0), vec![20, 22, 24, 26, 28]);
    assert_eq!(i32s(&fields, "m_data", 1), vec![25, 27, 29, 31, 33]);
    assert_eq!(i32s(&fields, "p_data", 1), vec![50, 54, 58, 62, 66]);
    let spec = mul_sum_example();
    let lane2 = |name| (spec.kernel_by_name(name).unwrap(), vec![2]);
    let retried: Vec<_> = report
        .trace
        .as_ref()
        .unwrap()
        .of_kind("BodyStart")
        .filter_map(|r| match &r.event {
            TraceEvent::BodyStart {
                kernel,
                indices,
                attempt: 1,
                ..
            } => Some((*kernel, indices.clone())),
            _ => None,
        })
        .collect();
    assert_eq!(
        retried,
        vec![lane2("mul2"), lane2("plus5")],
        "the retry re-runs producer and consumer"
    );
}

/// Online granularity adaptation: an aggressive controller on a dispatch-
/// dominated workload grows chunk sizes, the decisions trace as a sane
/// factor-of-two chain, and results stay exact.
#[test]
fn adaptive_granularity_adapts_and_stays_correct() {
    let cfg = AdaptiveGranularity {
        interval: std::time::Duration::from_micros(100),
        min_samples: 4,
        overhead_high: 0.05,
        p95_budget: None,
        ..AdaptiveGranularity::default()
    };
    let (report, fields) = NodeBuilder::new(build_program())
        .workers(2)
        .launch(
            RunLimits::ages(200)
                .with_adaptive(cfg)
                .with_gc_window(8)
                .with_trace(),
        )
        .and_then(|n| n.collect())
        .unwrap();
    assert_eq!(report.termination, Termination::Quiescent);
    p2g_runtime::trace_check::all(&report);
    // Spot-check late ages for exactness under adaptation.
    let m = fields.field_by_name("m_data").unwrap();
    assert!(m.is_complete(Age(199)));
    // The trace invariant (granularity_sane) has already validated any
    // decisions; a dispatch-bound run this long with a 5% overhead
    // threshold reliably triggers growth.
    assert!(
        report.instruments.granularity_changes() > 0,
        "controller never adapted a 200-age dispatch-dominated run"
    );
}
