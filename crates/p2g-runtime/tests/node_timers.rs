//! The node's timed actions, end to end: a soft deadline is a clock read in
//! the body and a miss is recorded as the instance closes; a delayed retry
//! waits in the analyzer loop until it is due; and a retry still pending
//! when the node stops is dropped with its outstanding count released.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use p2g_field::{Age, Buffer, Extents, FieldDef, ScalarType};
use p2g_graph::spec::{AgeExpr, IndexSel, KernelId, KernelSpec, ProgramSpec, StoreDecl};
use p2g_runtime::{
    FaultPolicy, NodeBuilder, NodeHandle, Program, RunLimits, RunReport, RuntimeError, Termination,
    TraceEvent,
};

/// Hang guard: a run that blows this deadline ends `DeadlineExpired`,
/// which every assertion below rejects.
const WALL: Duration = Duration::from_secs(20);

/// One-shot source kernels (no age variable, no fetches), each storing one
/// `i32` into a field of its own, in the order named.
fn sources(names: &[&str]) -> ProgramSpec {
    let mut spec = ProgramSpec::new();
    for name in names {
        let field = spec.add_field(FieldDef::with_extents(
            format!("{name}_out"),
            ScalarType::I32,
            Extents::new([1]),
        ));
        spec.add_kernel(KernelSpec {
            id: KernelId(0),
            name: (*name).into(),
            index_vars: 0,
            has_age_var: false,
            fetches: vec![],
            stores: vec![StoreDecl {
                field,
                age: AgeExpr::Const(0),
                dims: vec![IndexSel::All],
            }],
        });
    }
    spec
}

fn store_one(ctx: &mut p2g_runtime::KernelCtx, v: i32) {
    ctx.store(0, Buffer::from_vec(vec![v]));
}

/// Join a stopping node, failing the test instead of hanging when it does
/// not finish within `within`.
fn finish_within(node: NodeHandle, within: Duration) -> (RunReport, Option<RuntimeError>) {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let (report, _, err) = node.finish();
        let _ = tx.send((report, err));
    });
    rx.recv_timeout(within)
        .expect("the node must finish promptly once stopped")
}

fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let give_up = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < give_up, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A body that polls `cancelled()` sees it turn true once its deadline has
/// passed; the instance, finishing late, counts one miss, traced with its
/// identity on the worker's lane.
#[test]
fn deadline_flags_token() {
    const DEADLINE: Duration = Duration::from_millis(20);
    let mut program = Program::new(sources(&["slow"])).unwrap();
    let fired = Arc::new(Mutex::new(None));
    let f = fired.clone();
    program.body("slow", move |ctx| {
        while !ctx.cancelled() {
            std::thread::yield_now();
        }
        *f.lock().unwrap() = Some(Instant::now());
        store_one(ctx, 1);
        Ok(())
    });
    program.set_fault_policy("slow", FaultPolicy::default().with_deadline(DEADLINE));
    let launched = Instant::now();
    let report = NodeBuilder::new(program)
        .launch(RunLimits::unbounded().with_deadline(WALL).with_trace())
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(report.termination, Termination::Quiescent);
    // The instance started after `launched`, so its deadline is no earlier
    // than `launched + DEADLINE`.
    let waited = fired.lock().unwrap().expect("body ran") - launched;
    assert!(
        waited >= DEADLINE,
        "cancelled() turned true early: {waited:?}"
    );
    assert_eq!(report.instruments.total_deadline_misses(), 1);
    p2g_runtime::trace_check::all(&report);
    let trace = report.trace.as_ref().unwrap();
    let misses: Vec<_> = trace.of_kind("DeadlineMiss").collect();
    assert_eq!(misses.len(), 1);
    assert_eq!(trace.thread_labels[misses[0].tid as usize], "worker-0");
    assert!(matches!(
        &misses[0].event,
        TraceEvent::DeadlineMiss { kernel: KernelId(0), age: 0, indices } if indices.is_empty()
    ));
}

/// A body that returns well before its deadline is not a miss.
#[test]
fn fast_instance_not_flagged() {
    let mut program = Program::new(sources(&["fast"])).unwrap();
    program.body("fast", move |ctx| {
        assert!(!ctx.cancelled());
        store_one(ctx, 1);
        Ok(())
    });
    program.set_fault_policy(
        "fast",
        FaultPolicy::default().with_deadline(Duration::from_secs(60)),
    );
    let report = NodeBuilder::new(program)
        .launch(RunLimits::unbounded().with_deadline(WALL).with_trace())
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(report.termination, Termination::Quiescent);
    assert_eq!(report.instruments.total_deadline_misses(), 0);
    let trace = report.trace.as_ref().unwrap();
    assert_eq!(trace.of_kind("DeadlineMiss").count(), 0);
}

/// The analyzer releases a retry whose 40 ms backoff outlasts any short
/// wake-up interval, not before it is due, and the run ends with the
/// retried instance's value.
#[test]
fn retry_released_when_due() {
    const BACKOFF: Duration = Duration::from_millis(40);
    let mut program = Program::new(sources(&["flaky"])).unwrap();
    let attempts = Arc::new(Mutex::new(Vec::new()));
    let a = attempts.clone();
    program.body("flaky", move |ctx| {
        let mut a = a.lock().unwrap();
        a.push(Instant::now());
        if a.len() == 1 {
            return Err("transient".into());
        }
        store_one(ctx, 7);
        Ok(())
    });
    program.set_fault_policy(
        "flaky",
        FaultPolicy::retries(1).with_backoff(BACKOFF, BACKOFF),
    );
    let (report, fields) = NodeBuilder::new(program)
        .launch(RunLimits::unbounded().with_deadline(WALL).with_trace())
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(report.termination, Termination::Quiescent);
    p2g_runtime::trace_check::all(&report);
    let attempts = attempts.lock().unwrap();
    assert_eq!(attempts.len(), 2);
    let gap = attempts[1] - attempts[0];
    assert!(gap >= BACKOFF, "retry ran {gap:?} after the failure");
    let v = fields
        .fetch_element("flaky_out", Age(0), &[0])
        .expect("retried value stored");
    assert_eq!(v.as_i64(), 7);
    assert_eq!(report.instruments.total_retries(), 1);
}

/// A retry still pending when the node stops is dropped and its count
/// released, and `finish` returns at once: after `request_stop`, and after
/// an aborting failure of another kernel.
#[test]
fn stop_drains_pending_retries() {
    for abort in [false, true] {
        let mut program = Program::new(sources(&["flaky", "bomb"])).unwrap();
        let runs = Arc::new(AtomicU32::new(0));
        let r = runs.clone();
        program.body("flaky", move |_| {
            r.fetch_add(1, Ordering::SeqCst);
            Err("always".into())
        });
        let armed = Arc::new(AtomicBool::new(false));
        let fuse = armed.clone();
        program.body("bomb", move |ctx| {
            if abort {
                // Go off only once the retry is parked.
                while !fuse.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                return Err("abort".into());
            }
            store_one(ctx, 1);
            Ok(())
        });
        program.set_fault_policy(
            "flaky",
            FaultPolicy::retries(3).with_backoff(Duration::from_secs(60), Duration::from_secs(60)),
        );
        let node = NodeBuilder::new(program)
            .workers(2)
            .launch(RunLimits::unbounded().with_deadline(WALL))
            .unwrap();
        // Parked: only the retry's count is outstanding (plus the bomb's
        // unit while it waits to go off).
        let parked = 1 + i64::from(abort);
        wait_until("the retry to park", || {
            runs.load(Ordering::SeqCst) == 1 && node.outstanding() == parked
        });
        let stopped = Instant::now();
        if abort {
            armed.store(true, Ordering::SeqCst);
        } else {
            node.request_stop();
        }
        wait_until("the parked retry's count to be released", || {
            node.outstanding() == 0
        });
        let (report, err) = finish_within(node, Duration::from_secs(10));
        assert!(stopped.elapsed() < Duration::from_secs(10));
        assert_eq!(runs.load(Ordering::SeqCst), 1, "the retry never ran");
        assert_eq!(report.instruments.total_retries(), 1);
        if abort {
            assert_eq!(report.termination, Termination::Failed);
            assert!(err.is_some());
        } else {
            assert!(err.is_none());
        }
    }
}
