//! The streaming workload `cluster_runs` and `fault_recovery` share: a
//! two-kernel pipeline (`double` then the ordered, store-less `emit`) fed
//! frame by frame through a [`StreamFeed`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use p2g_dist::StreamFeed;
use p2g_field::{Buffer, Extents, FieldDef, FieldId, Region, ScalarType};
use p2g_graph::spec::{AgeExpr, FetchDecl, IndexSel, KernelId, KernelSpec, ProgramSpec, StoreDecl};
use p2g_runtime::Program;

fn stream_spec() -> ProgramSpec {
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
    spec
}

/// What the terminal kernel observed: the completion frontier (highest
/// emitted age + 1, which is what a [`StreamFeed`] probe must report) and
/// every frame sum in emission order.
#[derive(Clone, Default)]
pub struct Emitted {
    pub frontier: Arc<AtomicU64>,
    pub sums: Arc<parking_lot::Mutex<Vec<i64>>>,
}

/// Frame `n` is `[n, 1, 2, 3]`; it doubles to `[2n, 2, 4, 6]`.
pub fn frame_sum(n: u64) -> i64 {
    2 * n as i64 + 12
}

/// A program builder for the pipeline, recording into `emitted`.
pub fn stream_program(emitted: &Emitted) -> impl Fn() -> Program {
    let emitted = emitted.clone();
    move || {
        let mut p = Program::new(stream_spec()).unwrap();
        p.body("double", |ctx| {
            let out: Vec<i32> = ctx
                .input(0)
                .as_i32()
                .unwrap()
                .iter()
                .map(|v| v.wrapping_mul(2))
                .collect();
            ctx.store(0, Buffer::from_vec(out));
            Ok(())
        });
        let emitted = emitted.clone();
        p.body("emit", move |ctx| {
            let s: i64 = ctx
                .input(0)
                .as_i32()
                .unwrap()
                .iter()
                .map(|&v| v as i64)
                .sum();
            emitted.sums.lock().push(s);
            emitted
                .frontier
                .fetch_max(ctx.age().0 + 1, Ordering::SeqCst);
            Ok(())
        });
        p.set_ordered("emit");
        p
    }
}

/// A window-4 feed of `frames` frames whose probe is `emitted`'s frontier.
pub fn stream_feed(frames: u64, emitted: &Emitted) -> StreamFeed {
    let frontier = emitted.frontier.clone();
    StreamFeed::new(
        4,
        move |n| {
            (n < frames).then(|| {
                vec![(
                    FieldId(0),
                    Region::all(1),
                    Buffer::from_vec(vec![n as i32, 1, 2, 3]),
                )]
            })
        },
        move || frontier.load(Ordering::SeqCst),
    )
}
