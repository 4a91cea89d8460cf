//! Property tests of the dependency analyzer against a ground-truth
//! reference, plus the poison paths that invert a region.
//!
//! The analyzer (pending tables + counter decrements + gates) must dispatch
//! exactly the instances [`reference`] derives from field ground truth —
//! for every fetch shape, any store order, any partial coverage, stores of
//! whole rectangles that overlap earlier ones, any duplicated event
//! delivery, and a `Reassign` after lost events. The reference enumerates
//! each instance space and checks every fetch against the fields; it
//! shares no code with the analyzer. A *fresh* analyzer driven through
//! `Event::Reassign` (which rebuilds its tables from views resynchronized
//! with the fields) must agree with both.

use std::collections::HashSet;
use std::sync::Arc;

use proptest::prelude::*;

use p2g_field::{Age, Buffer, DimSel, Extents, Field, FieldDef, FieldId, Region, ScalarType};
use p2g_graph::spec::{AgeExpr, FetchDecl, IndexSel, IndexVar, KernelSpec, StoreDecl};
use p2g_graph::{KernelId, ProgramSpec};
use p2g_runtime::analyzer::{DependencyAnalyzer, SharedFields};
use p2g_runtime::events::{Event, StoreEvent};
use p2g_runtime::instance::DispatchUnit;
use p2g_runtime::program::resolve_region;
use p2g_runtime::{KernelOptions, RunLimits};

type Instance = (u32, u64, Vec<usize>);
/// A store: field, age and the `(start, len)` rectangle it writes.
type Store = (u32, u64, Vec<(usize, usize)>);

fn fetch(field: FieldId, age: AgeExpr, dims: Vec<IndexSel>) -> FetchDecl {
    FetchDecl { field, age, dims }
}

fn kernel(
    name: &str,
    index_vars: u8,
    fetches: Vec<FetchDecl>,
    stores: Vec<StoreDecl>,
) -> KernelSpec {
    KernelSpec {
        id: KernelId(0),
        name: name.into(),
        index_vars,
        has_age_var: true,
        fetches,
        stores,
    }
}

const X: IndexSel = IndexSel::Var(IndexVar(0));
const Y: IndexSel = IndexSel::Var(IndexVar(1));
const ALL: IndexSel = IndexSel::All;

/// Pure-consumer program exercising every fetch shape the analyzer
/// classifies: pointwise, row-like, whole-field, constant-age, a constant
/// row next to a whole dimension (row 1, out of bounds when `n1 = 1`), and
/// the shapes whose innermost (row) dimension is not `All`: a column
/// `[ALL, X]`, a constant column `[X, 1]` and the diagonal `[X, X]`.
fn consumer_spec(n0: usize, n1: usize, n2: usize) -> ProgramSpec {
    let mut spec = ProgramSpec::new();
    let f0 = spec.add_field(FieldDef::with_extents(
        "f0",
        ScalarType::I32,
        Extents::new([n0]),
    ));
    let f1 = spec.add_field(FieldDef::with_extents(
        "f1",
        ScalarType::I32,
        Extents::new([n1, n2]),
    ));
    let rel = AgeExpr::Rel(0);
    spec.add_kernel(kernel("k_point", 1, vec![fetch(f0, rel, vec![X])], vec![]));
    spec.add_kernel(kernel(
        "k_row",
        1,
        vec![fetch(f1, rel, vec![X, ALL])],
        vec![],
    ));
    spec.add_kernel(kernel(
        "k_whole",
        0,
        vec![fetch(f0, rel, vec![ALL]), fetch(f1, rel, vec![ALL, ALL])],
        vec![],
    ));
    spec.add_kernel(kernel(
        "k_cell",
        2,
        vec![
            fetch(f0, AgeExpr::Const(0), vec![X]),
            fetch(f1, rel, vec![X, Y]),
        ],
        vec![],
    ));
    spec.add_kernel(kernel(
        "k_inel",
        0,
        vec![fetch(f1, rel, vec![IndexSel::Const(1), ALL])],
        vec![],
    ));
    spec.add_kernel(kernel(
        "k_col",
        1,
        vec![fetch(f1, rel, vec![ALL, X])],
        vec![],
    ));
    spec.add_kernel(kernel(
        "k_c1",
        1,
        vec![fetch(f1, rel, vec![X, IndexSel::Const(1)])],
        vec![],
    ));
    spec.add_kernel(kernel(
        "k_diag",
        1,
        vec![fetch(f1, rel, vec![X, X])],
        vec![],
    ));
    spec
}

fn make_analyzer(spec: &Arc<ProgramSpec>, fields: &SharedFields, ages: u64) -> DependencyAnalyzer {
    DependencyAnalyzer::new(
        spec.clone(),
        vec![KernelOptions::default(); spec.kernels.len()],
        HashSet::new(),
        fields.clone(),
        RunLimits::ages(ages),
    )
}

fn make_fields(spec: &Arc<ProgramSpec>) -> SharedFields {
    Arc::new(
        spec.fields
            .iter()
            .enumerate()
            .map(|(i, d)| parking_lot::RwLock::new(Field::new(FieldId(i as u32), d.clone())))
            .collect(),
    )
}

fn reassign_all(spec: &ProgramSpec) -> Event {
    Event::Reassign {
        kernels: spec.kernels.iter().map(|k| k.id).collect(),
    }
}

/// Flatten dispatch units into (kernel, age, indices) instance tuples.
fn instances_of(units: &[DispatchUnit]) -> Vec<Instance> {
    units
        .iter()
        .flat_map(|u| {
            u.instances
                .iter()
                .map(move |idx| (u.kernel.0, u.age.0, idx.clone()))
        })
        .collect()
}

/// Ground truth: every instance of every kernel at ages `0..ages` whose
/// fetches the fields satisfy. Index ranges come from the extents of each
/// variable's binding fetch (its first fetch naming the variable); a
/// whole-field fetch needs a complete age, any other fetch a written
/// region.
fn reference(spec: &ProgramSpec, fields: &SharedFields, ages: u64) -> Vec<Instance> {
    let mut out = Vec::new();
    for k in &spec.kernels {
        for a in 0..ages {
            let ranges: Option<Vec<usize>> = (0..k.index_vars)
                .map(|v| {
                    let var = IndexSel::Var(IndexVar(v));
                    let (fe, d) = k
                        .fetches
                        .iter()
                        .find_map(|fe| fe.dims.iter().position(|s| *s == var).map(|d| (fe, d)))
                        .expect("every index variable is bound");
                    let field = fields[fe.field.idx()].read();
                    field.extents(fe.age.resolve(Age(a))).map(|e| e.dim(d))
                })
                .collect();
            let Some(ranges) = ranges else { continue };
            let space = Extents(ranges);
            for lin in 0..space.len() {
                let idx = space.delinearize(lin);
                let runnable = k.fetches.iter().all(|fe| {
                    let field = fields[fe.field.idx()].read();
                    let fa = fe.age.resolve(Age(a));
                    if fe.dims.iter().all(|s| *s == ALL) {
                        field.is_complete(fa)
                    } else {
                        field.region_written(fa, &resolve_region(&fe.dims, &idx))
                    }
                });
                if runnable {
                    out.push((k.id.0, a, idx));
                }
            }
        }
    }
    out.sort();
    out
}

/// A pseudo-random subset of every element of both fields at every age,
/// plus `rects` random rectangles per field and age — which overlap the
/// elements and each other, and repeat whole — shuffled.
fn storm(
    (n0, n1, n2, ages): (usize, usize, usize, u64),
    subset_seed: u64,
    keep_num: u32,
    rects: usize,
    order: u64,
) -> Vec<Store> {
    let mut stores: Vec<Store> = Vec::new();
    for a in 0..ages {
        for x in 0..n0 {
            stores.push((0, a, vec![(x, 1)]));
        }
        for y in 0..n1 {
            for z in 0..n2 {
                stores.push((1, a, vec![(y, 1), (z, 1)]));
            }
        }
    }
    // Cheap splitmix-style hash.
    let hash = |i: u64| {
        let mut h = subset_seed ^ i.wrapping_mul(0x9E3779B97F4A7C15);
        h ^= h >> 31;
        h = h.wrapping_mul(0xBF58476D1CE4E5B9);
        h ^ (h >> 29)
    };
    let mut keep: Vec<Store> = stores
        .into_iter()
        .enumerate()
        .filter(|(i, _)| (hash(*i as u64) % 100) < keep_num as u64)
        .map(|(_, s)| s)
        .collect();
    let mut draw = 1u64 << 32;
    let mut span = |n: usize| {
        draw += 2;
        let start = hash(draw) as usize % n;
        (start, 1 + hash(draw + 1) as usize % (n - start))
    };
    for a in 0..ages {
        for r in 0..rects {
            let rect0 = (0, a, vec![span(n0)]);
            let rect1 = (1, a, vec![span(n1), span(n2)]);
            // Every third rectangle is stored twice.
            if r % 3 == 2 {
                keep.push(rect0.clone());
                keep.push(rect1.clone());
            }
            keep.push(rect0);
            keep.push(rect1);
        }
    }
    // Fisher–Yates with the perturbed order seed.
    let mut state = order;
    for i in (1..keep.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        keep.swap(i, (state as usize) % (i + 1));
    }
    keep
}

/// Store one rectangle into the fields and build its event. Each element's
/// value is a function of its coordinates, so a store overlapping earlier
/// ones lands as an idempotent replay: the already written elements are
/// deduplicated, and the event still carries the whole rectangle.
fn land(fields: &SharedFields, (fid, a, spans): &Store) -> Event {
    let shape = Extents(spans.iter().map(|&(_, len)| len).collect());
    let values: Vec<i32> = (0..shape.len())
        .map(|lin| {
            let off = shape.delinearize(lin);
            spans
                .iter()
                .zip(off)
                .fold(*fid as i32, |h, (&(start, _), o)| {
                    h * 31 + (start + o) as i32
                })
        })
        .collect();
    let region = Region(
        spans
            .iter()
            .map(|&(start, len)| DimSel::Range { start, len })
            .collect(),
    );
    let mut field = fields[*fid as usize].write();
    let out = field
        .store_idempotent(Age(*a), &region, &Buffer::from_vec(values))
        .unwrap();
    let extents = field.extents(Age(*a)).cloned().unwrap();
    Event::Store(StoreEvent {
        field: FieldId(*fid),
        age: Age(*a),
        region: region.resolved_against(&extents),
        extents,
        elements: out.stored,
        age_complete: out.age_complete,
        resized: out.resized,
        inline_dispatched: None,
    })
}

/// Assert `got` has no duplicate and equals both the reference and what a
/// fresh analyzer's `Reassign` dispatches over the same fields.
fn check_against_ground_truth(
    spec: &Arc<ProgramSpec>,
    fields: &SharedFields,
    ages: u64,
    mut got: Vec<Instance>,
) -> Result<(), TestCaseError> {
    let got_len = got.len();
    got.sort();
    got.dedup();
    prop_assert_eq!(got.len(), got_len, "an instance was dispatched twice");
    let want = reference(spec, fields, ages);
    let mut fresh = make_analyzer(spec, fields, ages);
    let mut rebuilt = instances_of(&fresh.on_event(&reassign_all(spec)).unwrap());
    rebuilt.sort();
    prop_assert_eq!(&rebuilt, &want, "Reassign differs from the reference");
    prop_assert_eq!(&got, &want, "incremental differs from the reference");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Feed a random subset of element stores and overlapping rectangle
    /// stores in random order (with random duplicate event deliveries)
    /// through the analyzer. The first
    /// `reassign_at` stores land with some events lost (a clear `dup_mask`
    /// bit), then `Reassign` resynchronizes; the rest are delivered. The
    /// dispatched instances must equal the ground truth, with no duplicate.
    #[test]
    fn incremental_matches_ground_truth(
        n0 in 1usize..5,
        n1 in 1usize..4,
        n2 in 1usize..4,
        ages in 1u64..4,
        subset_seed in any::<u64>(),
        keep_num in 0u32..=100,
        dup_mask in any::<u64>(),
        order in any::<u64>(),
        rects in 0usize..6,
        reassign_at in 0usize..48,
    ) {
        let spec = Arc::new(consumer_spec(n0, n1, n2));
        let fields = make_fields(&spec);
        let mut an = make_analyzer(&spec, &fields, ages);
        let mut units = an.seed();
        let keep = storm((n0, n1, n2, ages), subset_seed, keep_num, rects, order);
        let cut = reassign_at.min(keep.len());
        for (i, store) in keep.iter().enumerate() {
            if i == cut {
                units.extend(an.on_event(&reassign_all(&spec)).unwrap());
            }
            let ev = land(&fields, store);
            let bit = dup_mask & (1 << (i % 64)) != 0;
            if i >= cut || bit {
                units.extend(an.on_event(&ev).unwrap());
            }
            // Duplicate delivery of some events: must be absorbed.
            if i >= cut && bit {
                units.extend(an.on_event(&ev).unwrap());
            }
        }
        if cut == keep.len() {
            units.extend(an.on_event(&reassign_all(&spec)).unwrap());
        }
        check_against_ground_truth(&spec, &fields, ages, instances_of(&units))?;
    }

}

/// `Reassign` after a rectangle store whose event was lost while an earlier,
/// overlapping rectangle's was delivered: the rebuilt views account the
/// lost store's elements, and the late replays of both events (and a
/// duplicate) must dispatch nothing twice and miss nothing.
#[test]
fn reassign_after_partly_delivered_rectangle() {
    let spec = Arc::new(consumer_spec(3, 3, 3));
    let fields = make_fields(&spec);
    let mut an = make_analyzer(&spec, &fields, 1);
    let mut units = an.seed();
    let first = land(&fields, &(1, 0, vec![(0, 2), (0, 2)]));
    units.extend(an.on_event(&first).unwrap());
    // Overlaps `first` in [1, 2) x [1, 2); its event is lost.
    let lost = land(&fields, &(1, 0, vec![(1, 2), (1, 2)]));
    units.extend(an.on_event(&reassign_all(&spec)).unwrap());
    for ev in [&lost, &first, &lost] {
        units.extend(an.on_event(ev).unwrap());
    }
    for x in 0..3 {
        units.extend(an.on_event(&land(&fields, &(0, 0, vec![(x, 1)]))).unwrap());
    }
    let rest = land(&fields, &(1, 0, vec![(0, 3), (0, 3)]));
    units.extend(an.on_event(&rest).unwrap());
    let got = instances_of(&units);
    check_against_ground_truth(&spec, &fields, 1, got.clone()).unwrap();
    // Everything is written: every in-bounds instance of every kernel ran.
    assert_eq!(got.len(), reference(&spec, &fields, 1).len());
    assert!(
        got.contains(&(7, 0, vec![2])),
        "the diagonal's last element"
    );
}

/// Poisoned instances drained from `an`, as sorted (kernel, indices) at
/// age 0.
fn poisoned(an: &mut DependencyAnalyzer) -> Vec<(u32, Vec<usize>)> {
    let mut out: Vec<(u32, Vec<usize>)> = an
        .take_poisoned()
        .into_iter()
        .map(|(k, a, idx)| {
            assert_eq!(a, 0);
            (k.0, idx)
        })
        .collect();
    out.sort();
    out
}

fn failure(kernel: u32, indices: Vec<usize>) -> Event {
    Event::KernelFailure {
        kernel: KernelId(kernel),
        age: Age(0),
        indices,
        message: "injected".into(),
    }
}

/// Poison that arrives before a constant-row consumer's instance space is
/// known reaches every instance once the space becomes known.
#[test]
fn late_poison_reaches_constant_row_consumer() {
    let mut spec = ProgramSpec::new();
    let p = spec.add_field(FieldDef::new("p", ScalarType::I32, 1));
    let q = spec.add_field(FieldDef::with_extents(
        "q",
        ScalarType::I32,
        Extents::new([2, 3]),
    ));
    let rel = AgeExpr::Rel(0);
    spec.add_kernel(kernel(
        "qq",
        0,
        vec![],
        vec![StoreDecl {
            field: q,
            age: rel,
            dims: vec![ALL, ALL],
        }],
    ));
    spec.add_kernel(kernel(
        "c",
        1,
        vec![
            fetch(p, rel, vec![X]),
            fetch(q, rel, vec![IndexSel::Const(1), ALL]),
        ],
        vec![],
    ));
    let spec = Arc::new(spec);
    let fields = make_fields(&spec);
    let mut an = make_analyzer(&spec, &fields, 1);
    assert_eq!(an.seed().len(), 1);
    an.on_event(&failure(0, vec![])).unwrap();
    assert_eq!(poisoned(&mut an), vec![(0, vec![])]);
    for x in 0..3 {
        let units = an.on_event(&land(&fields, &(0, 0, vec![(x, 1)]))).unwrap();
        assert!(units.is_empty(), "a poisoned instance was dispatched");
    }
    assert_eq!(
        poisoned(&mut an),
        vec![(1, vec![0]), (1, vec![1]), (1, vec![2])]
    );
}

/// Poison through a constant index filters: a failed instance that would
/// have stored only row 0 poisons the consumers of row 0, and neither the
/// row-like nor the pointwise consumer of row 1.
#[test]
fn poison_through_constant_index_filters() {
    let mut spec = ProgramSpec::new();
    let src = spec.add_field(FieldDef::with_extents(
        "src",
        ScalarType::I32,
        Extents::new([2]),
    ));
    let p = spec.add_field(FieldDef::with_extents(
        "p",
        ScalarType::I32,
        Extents::new([3]),
    ));
    let q = spec.add_field(FieldDef::with_extents(
        "q",
        ScalarType::I32,
        Extents::new([2, 3]),
    ));
    let rel = AgeExpr::Rel(0);
    spec.add_kernel(kernel(
        "rows",
        1,
        vec![fetch(src, rel, vec![X])],
        vec![StoreDecl {
            field: q,
            age: rel,
            dims: vec![X, ALL],
        }],
    ));
    let row = |r: usize, last: IndexSel| {
        vec![
            fetch(p, rel, vec![X]),
            fetch(q, rel, vec![IndexSel::Const(r), last]),
        ]
    };
    spec.add_kernel(kernel("row0", 1, row(0, ALL), vec![]));
    spec.add_kernel(kernel("row1", 1, row(1, ALL), vec![]));
    spec.add_kernel(kernel("cell0", 1, row(0, X), vec![]));
    spec.add_kernel(kernel("cell1", 1, row(1, X), vec![]));
    let spec = Arc::new(spec);
    let fields = make_fields(&spec);
    let mut an = make_analyzer(&spec, &fields, 1);
    for x in 0..3 {
        an.on_event(&land(&fields, &(1, 0, vec![(x, 1)]))).unwrap();
    }
    an.on_event(&failure(0, vec![0])).unwrap();
    let all3 = |k: u32| (0..3).map(move |x| (k, vec![x]));
    let mut want: Vec<(u32, Vec<usize>)> = vec![(0, vec![0])];
    want.extend(all3(1).chain(all3(3)));
    assert_eq!(poisoned(&mut an), want);
}
