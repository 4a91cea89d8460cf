//! Fault tolerance (paper Section III: write-once semantics enable
//! "migration of workload and restarts of failing kernel instances"):
//! run the Figure-5 program on a 3-node cluster while the network drops
//! and duplicates messages and one node is killed mid-run, then check the
//! results against a fault-free single-node reference.
//!
//! Run with: `cargo run -p p2g-examples --bin fault_tolerance --release
//! [drop_rate] [ages]`

use std::time::Duration;

use p2g_core::graph::spec::mul_sum_example;
use p2g_core::prelude::*;

fn build() -> Program {
    let mut p = Program::new(mul_sum_example()).expect("valid spec");
    p.body("init", |ctx| {
        ctx.store(
            0,
            Buffer::from_vec((0..5).map(|i| i + 10).collect::<Vec<i32>>()),
        );
        Ok(())
    });
    p.body("mul2", |ctx| {
        let v = ctx.input(0).value(0).as_i64() as i32;
        ctx.store(0, Buffer::from_vec(vec![v.wrapping_mul(2)]));
        Ok(())
    });
    p.body("plus5", |ctx| {
        let v = ctx.input(0).value(0).as_i64() as i32;
        ctx.store(0, Buffer::from_vec(vec![v.wrapping_add(5)]));
        Ok(())
    });
    p.body("print", |_| Ok(()));
    p
}

fn field(fields: &p2g_core::runtime::node::FieldStore, name: &str, age: u64) -> Vec<i32> {
    fields
        .fetch(name, Age(age), &Region::all(1))
        .map(|b| b.as_i32().unwrap().to_vec())
        .unwrap_or_default()
}

fn main() {
    let mut args = std::env::args().skip(1);
    let drop_rate: f64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(0.2);
    let ages: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(6);

    // Fault-free single-node reference.
    let (_, reference) = NodeBuilder::new(build())
        .workers(2)
        .launch(RunLimits::ages(ages))
        .expect("reference launches")
        .collect()
        .expect("reference runs");

    // A hostile network: lossy, duplicating, and it kills node 1 once
    // cross-node traffic is underway.
    let plan = FaultPlan::new()
        .drop_rate(drop_rate)
        .duplicate_rate(0.1)
        .kill_after_messages(NodeId(1), 12)
        .seed(42);
    println!(
        "3-node cluster, drop rate {:.0}%, duplicate rate 10%, node1 killed after 12 messages",
        drop_rate * 100.0
    );

    let cluster =
        SimCluster::new(ClusterConfig::nodes(3).with_faults(plan), build).expect("cluster builds");
    let outcome = cluster
        .run(RunLimits::ages(ages).with_deadline(Duration::from_secs(30)))
        .expect("cluster survives the faults");

    println!("failed nodes: {:?}", outcome.failed_nodes);
    println!(
        "drops: {}, retries: {}, redelivered stores on recovery: {}, deduped elements: {}",
        outcome.total_drops(),
        outcome.retries(),
        outcome.redelivered_stores,
        outcome.total_deduped(),
    );
    if outcome.lost_sends() > 0 {
        println!(
            "WARNING: {} sends exhausted their retry budget — data was lost",
            outcome.lost_sends()
        );
    }
    println!("post-recovery assignment: {:?}", {
        let mut nodes: Vec<_> = outcome.assignment.keys().collect();
        nodes.sort();
        nodes
    });

    let mut ok = true;
    for age in 0..ages {
        for name in ["m_data", "p_data"] {
            let want = field(&reference, name, age);
            let got = outcome
                .fetch(name, Age(age), &Region::all(1))
                .map(|b| b.as_i32().unwrap().to_vec())
                .unwrap_or_default();
            if got != want {
                ok = false;
                println!("MISMATCH {name} age {age}: got {got:?}, want {want:?}");
            }
        }
    }
    println!(
        "results identical to the fault-free run: {}",
        if ok { "true" } else { "FALSE" }
    );
    if !ok {
        std::process::exit(1);
    }
}
