//! Every node runs on a worker pool; a node launched without a shared pool
//! owns one, and that pool lives exactly as long as the node. The test
//! counts the process's `p2g-pool-*` threads, so it is the only test in
//! this binary: no other test's pool may share the process.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use p2g_field::Buffer;
use p2g_graph::spec::mul_sum_example;
use p2g_runtime::{NodeBuilder, Program, RunLimits};

/// Set by the panic hook when a pool thread panics outside a kernel body.
static POOL_PANIC: AtomicBool = AtomicBool::new(false);

/// Live threads of this process whose name starts `p2g-pool`.
fn pool_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with("p2g-pool"))
        .count()
}

/// Wait up to `within` for exactly `n` pool threads; the last count seen.
fn settle_at(n: usize, within: Duration) -> usize {
    let deadline = Instant::now() + within;
    loop {
        let seen = pool_threads();
        if seen == n || Instant::now() >= deadline {
            return seen;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The Figure-5 mul_sum program whose `init` body sets `started` and then
/// holds its pool thread until `release` is set.
fn gated_program(started: Arc<AtomicBool>, release: Arc<AtomicBool>) -> Program {
    let mut program = Program::new(mul_sum_example()).unwrap();
    program.body("init", move |ctx| {
        started.store(true, Ordering::SeqCst);
        while !release.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
        }
        ctx.store(0, Buffer::from_vec((10..15).collect::<Vec<i32>>()));
        Ok(())
    });
    for name in ["mul2", "plus5"] {
        program.body(name, |ctx| {
            let v = ctx.input(0).as_i32().unwrap()[0];
            ctx.store(0, Buffer::from_vec(vec![v.wrapping_add(1)]));
            Ok(())
        });
    }
    program.body("print", |_| Ok(()));
    program
}

fn wait_for(flag: &AtomicBool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !flag.load(Ordering::SeqCst) {
        assert!(Instant::now() < deadline, "init body never started");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn a_node_leaves_no_pool_thread_behind() {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let name = std::thread::current().name().map(str::to_owned);
        if name.is_some_and(|n| n.starts_with("p2g-pool")) {
            POOL_PANIC.store(true, Ordering::SeqCst);
        }
        prev(info);
    }));
    assert_eq!(pool_threads(), 0, "no pool before the first launch");

    // A batch node: its own 3 workers while it runs, none once collected.
    let (started, release): (Arc<AtomicBool>, Arc<AtomicBool>) = Default::default();
    let node = NodeBuilder::new(gated_program(started.clone(), release.clone()))
        .workers(3)
        .launch(RunLimits::ages(3))
        .unwrap();
    wait_for(&started);
    assert_eq!(settle_at(3, Duration::from_secs(5)), 3, "workers(3) runs 3");
    release.store(true, Ordering::SeqCst);
    node.collect().unwrap();
    assert_eq!(
        settle_at(0, Duration::from_secs(1)),
        0,
        "collect joins them"
    );

    // A held-open node stopped while a body runs, its handle dropped
    // without `finish`: the body's pool thread drops the node's last
    // reference, and with it the pool, which it must not join itself.
    let (started, release): (Arc<AtomicBool>, Arc<AtomicBool>) = Default::default();
    let limits = RunLimits {
        hold_open: true,
        ..RunLimits::ages(3)
    };
    let node = NodeBuilder::new(gated_program(started.clone(), release.clone()))
        .workers(2)
        .launch(limits)
        .unwrap();
    wait_for(&started);
    node.request_stop();
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::spawn(move || {
        drop(node);
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(Duration::from_secs(5))
        .expect("dropping a stopped node's handle must not hang");
    std::thread::sleep(Duration::from_millis(20));
    release.store(true, Ordering::SeqCst);
    assert_eq!(
        settle_at(0, Duration::from_secs(5)),
        0,
        "a dropped node's pool threads exit"
    );
    assert!(!POOL_PANIC.load(Ordering::SeqCst), "a pool thread panicked");
}
