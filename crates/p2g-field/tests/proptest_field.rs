//! Property-based tests for field invariants: write-once enforcement,
//! linearization round trips, resize data preservation, completeness
//! monotonicity.

use proptest::prelude::*;

use p2g_field::{
    Age, Buffer, DimSel, Extents, Field, FieldDef, FieldError, FieldId, Region, ScalarType, Value,
};

fn small_extents() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(1usize..6, 1..4)
}

proptest! {
    /// linearize ∘ delinearize = id for every valid linear index.
    #[test]
    fn linearize_round_trip(dims in small_extents()) {
        let e = Extents::new(dims);
        for lin in 0..e.len() {
            prop_assert_eq!(e.linearize(&e.delinearize(lin)), Some(lin));
        }
    }

    /// Distinct multi-indices linearize to distinct linear indices
    /// (row-major linearization is a bijection).
    #[test]
    fn linearize_injective(dims in small_extents()) {
        let e = Extents::new(dims);
        let mut seen = std::collections::HashSet::new();
        let total = e.len();
        for lin in 0..total {
            let idx = e.delinearize(lin);
            prop_assert!(seen.insert(idx));
        }
        prop_assert_eq!(seen.len(), total);
    }

    /// Storing each element exactly once, in any order, completes the age
    /// and reproduces the written values; any repeat is a violation.
    #[test]
    fn write_once_any_order(perm in prop::collection::vec(0usize..20, 20..=20),
                            repeat_at in 0usize..20) {
        // Build a permutation of 0..20 from the random ranking.
        let mut order: Vec<usize> = (0..20).collect();
        order.sort_by_key(|&i| (perm[i], i));

        let mut f = Field::new(
            FieldId(0),
            FieldDef::with_extents("v", ScalarType::I32, Extents::new([20])),
        );
        for (step, &x) in order.iter().enumerate() {
            let out = f.store_element(Age(0), &[x], Value::I32(x as i32)).unwrap();
            prop_assert_eq!(out.age_complete, step == 19);
        }
        prop_assert!(f.is_complete(Age(0)));
        let b = f.fetch(Age(0), &Region::all(1)).unwrap();
        for x in 0..20 {
            prop_assert_eq!(b.value(x), Value::I32(x as i32));
        }
        // Any re-store is a deterministic violation.
        let err = f.store_element(Age(0), &[repeat_at], Value::I32(0)).unwrap_err();
        let is_violation = matches!(err, FieldError::WriteOnceViolation { .. });
        prop_assert!(is_violation);
    }

    /// Implicit resizes never lose previously written data, regardless of
    /// the store order and the dimension that grows.
    #[test]
    fn resize_preserves_data(stores in prop::collection::vec((0usize..8, 0usize..8), 1..30)) {
        let mut f = Field::new(FieldId(0), FieldDef::new("m", ScalarType::I64, 2));
        let mut expected: std::collections::HashMap<(usize, usize), i64> =
            std::collections::HashMap::new();
        for (n, &(r, c)) in stores.iter().enumerate() {
            if let std::collections::hash_map::Entry::Vacant(e) = expected.entry((r, c)) {
                f.store_element(Age(0), &[r, c], Value::I64(n as i64)).unwrap();
                e.insert(n as i64);
            } else {
                let is_violation = matches!(
                    f.store_element(Age(0), &[r, c], Value::I64(n as i64)),
                    Err(FieldError::WriteOnceViolation { .. })
                );
                prop_assert!(is_violation);
            }
        }
        for (&(r, c), &v) in &expected {
            prop_assert_eq!(f.fetch_element(Age(0), &[r, c]).unwrap(), Value::I64(v));
        }
    }

    /// written_count is monotone in the number of store operations and
    /// completeness implies written_count == extent product.
    #[test]
    fn completeness_is_full_count(dims in prop::collection::vec(1usize..5, 1..3)) {
        let e = Extents::new(dims.clone());
        let mut f = Field::new(
            FieldId(0),
            FieldDef::with_extents("v", ScalarType::F64, e.clone()),
        );
        let mut prev = 0;
        for lin in 0..e.len() {
            let idx = e.delinearize(lin);
            f.store_element(Age(0), &idx, Value::F64(lin as f64)).unwrap();
            let cnt = f.written_count(Age(0));
            prop_assert!(cnt > prev);
            prev = cnt;
        }
        prop_assert!(f.is_complete(Age(0)));
        prop_assert_eq!(f.written_count(Age(0)), e.len());
    }

    /// Fetching any sub-region of a fully written field returns exactly the
    /// elements selected, in row-major order.
    #[test]
    fn region_fetch_matches_manual_copy(
        rows in 1usize..5, cols in 1usize..5,
        r0 in 0usize..4, c0 in 0usize..4, rl in 1usize..4, cl in 1usize..4,
    ) {
        let e = Extents::new([rows, cols]);
        let mut f = Field::new(
            FieldId(0),
            FieldDef::with_extents("v", ScalarType::I32, e.clone()),
        );
        for lin in 0..e.len() {
            f.store_element(Age(0), &e.delinearize(lin), Value::I32(lin as i32)).unwrap();
        }
        let r0 = r0.min(rows - 1);
        let c0 = c0.min(cols - 1);
        let rl = rl.min(rows - r0);
        let cl = cl.min(cols - c0);
        let region = Region(vec![
            DimSel::Range { start: r0, len: rl },
            DimSel::Range { start: c0, len: cl },
        ]);
        let got = f.fetch(Age(0), &region).unwrap();
        let mut want = Vec::new();
        for r in r0..r0 + rl {
            for c in c0..c0 + cl {
                want.push(e.linearize(&[r, c]).unwrap() as i32);
            }
        }
        prop_assert_eq!(got.as_i32().unwrap(), &want[..]);
    }

    /// Round-trip: store a whole buffer, fetch it back unchanged.
    #[test]
    fn store_fetch_round_trip(data in prop::collection::vec(any::<i32>(), 1..64)) {
        let mut f = Field::new(FieldId(0), FieldDef::new("v", ScalarType::I32, 1));
        let buf = Buffer::from_vec(data.clone());
        f.store(Age(0), &Region::all(1), &buf).unwrap();
        let back = f.fetch(Age(0), &Region::all(1)).unwrap();
        prop_assert_eq!(back.as_i32().unwrap(), &data[..]);
    }

    /// GC of one age never affects the data of other ages.
    #[test]
    fn gc_isolated_per_age(n_ages in 2u64..6, collect in 0u64..6) {
        let collect = collect % n_ages;
        let mut f = Field::new(FieldId(0), FieldDef::new("v", ScalarType::I32, 1));
        for a in 0..n_ages {
            f.store(Age(a), &Region::all(1), &Buffer::from_vec(vec![a as i32; 4])).unwrap();
        }
        f.collect_age(Age(collect));
        // Ages above the collected one must be untouched. (Ages below it sit
        // under the collected-watermark and are intentionally inaccessible.)
        for a in collect + 1..n_ages {
            let b = f.fetch(Age(a), &Region::all(1)).unwrap();
            prop_assert_eq!(b.as_i32().unwrap(), &[a as i32; 4][..]);
        }
    }
}

/// A selector for a dimension of extent `ext` from three random draws:
/// an index, a range or the whole dimension, always within the extent.
fn selector(ext: usize, (kind, a, b): (u8, usize, usize)) -> DimSel {
    match kind {
        0 if ext > 0 => DimSel::Index(a % ext),
        0 | 2 => DimSel::All,
        _ => {
            let start = a % (ext + 1);
            DimSel::Range {
                start,
                len: b % (ext + 1 - start),
            }
        }
    }
}

/// The linear indices a `(firsts, length)` walk covers, in walk order.
fn covered(walk: impl Iterator<Item = usize>, len: usize) -> Vec<usize> {
    walk.flat_map(|start| start..start + len).collect()
}

proptest! {
    /// `runs` covers exactly the linear indices `rows` covers, in the same
    /// order, in no more pieces; each run starts at its reported index.
    #[test]
    fn runs_cover_exactly_the_rows(
        dims in prop::collection::vec(0usize..=6, 1..=4),
        draws in prop::collection::vec((0u8..3, 0usize..7, 0usize..7), 4..=4),
    ) {
        let e = Extents::new(dims.clone());
        let region = Region(dims.iter().zip(&draws).map(|(&ext, &d)| selector(ext, d)).collect());
        let (rows, row) = region.rows(&e).unwrap();
        let (rows_n, rows_lin) = {
            let firsts: Vec<usize> = rows.collect();
            (firsts.len(), covered(firsts.into_iter(), row))
        };
        let (mut runs, run) = region.runs(&e).unwrap();
        let mut firsts = Vec::new();
        while let Some(lin) = runs.next() {
            prop_assert_eq!(e.linearize(runs.index()), Some(lin));
            firsts.push(lin);
        }
        prop_assert!(firsts.len() <= rows_n);
        prop_assert_eq!(covered(firsts.into_iter(), run), rows_lin.clone());
        prop_assert_eq!(rows_lin.len(), region.len(&e).unwrap());
    }

    /// Fetching any region of a fully written field of rank 1–4 returns
    /// the selected elements in row-major order.
    #[test]
    fn fetch_gathers_the_region(
        dims in prop::collection::vec(1usize..=5, 1..=4),
        draws in prop::collection::vec((0u8..3, 0usize..7, 0usize..7), 4..=4),
    ) {
        let e = Extents::new(dims.clone());
        let mut f = Field::new(FieldId(0), FieldDef::with_extents("v", ScalarType::I32, e.clone()));
        let all: Vec<i32> = (0..e.len() as i32).collect();
        f.store(Age(0), &Region::all(e.ndim()), &Buffer::from_vec(all).reshape(e.clone()).unwrap())
            .unwrap();
        let region = Region(dims.iter().zip(&draws).map(|(&ext, &d)| selector(ext, d)).collect());
        let (rows, row) = region.rows(&e).unwrap();
        let want: Vec<i32> = covered(rows, row).into_iter().map(|lin| lin as i32).collect();
        let got = f.fetch(Age(0), &region).unwrap();
        prop_assert_eq!(got.shape(), &region.shape(&e).unwrap());
        prop_assert_eq!(got.as_i32().unwrap(), &want[..]);
        prop_assert!(f.region_written(Age(0), &region));
    }
}
