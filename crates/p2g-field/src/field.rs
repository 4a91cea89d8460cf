//! The aged, write-once field store.

use std::collections::BTreeMap;

use crate::bitmap::{remap_for_resize, Bitmap};
use crate::buffer::{Buffer, BufferData};
use crate::error::FieldError;
use crate::extent::{DimSel, Extents, Region};
use crate::types::{ScalarType, Value};
use crate::{Age, FieldId};

/// Static description of a field: the part the compiler knows.
#[derive(Debug, Clone)]
pub struct FieldDef {
    /// Source-level name, e.g. `m_data`.
    pub name: String,
    /// Element type.
    pub ty: ScalarType,
    /// Number of dimensions (not counting the implicit age dimension).
    pub ndim: usize,
    /// Extents when declared with fixed sizes; `None` when they are
    /// discovered at runtime through implicit resizing (the paper's `print`
    /// example: `m_data`'s extent appears when `init` first stores to it).
    pub initial_extents: Option<Extents>,
}

impl FieldDef {
    /// Convenience constructor for a field with runtime-discovered extents.
    pub fn new(name: impl Into<String>, ty: ScalarType, ndim: usize) -> FieldDef {
        FieldDef {
            name: name.into(),
            ty,
            ndim,
            initial_extents: None,
        }
    }

    /// Constructor with fixed initial extents.
    pub fn with_extents(name: impl Into<String>, ty: ScalarType, extents: Extents) -> FieldDef {
        FieldDef {
            name: name.into(),
            ty,
            ndim: extents.ndim(),
            initial_extents: Some(extents),
        }
    }
}

/// The data stored for one age of a field.
#[derive(Debug, Clone)]
pub struct AgeData {
    extents: Extents,
    buffer: Buffer,
    written: Bitmap,
}

impl AgeData {
    fn new(ty: ScalarType, extents: Extents) -> AgeData {
        let len = extents.len();
        AgeData {
            buffer: Buffer::zeroed(ty, extents.clone()),
            written: Bitmap::new(len),
            extents,
        }
    }

    /// Current extents of this age.
    pub fn extents(&self) -> &Extents {
        &self.extents
    }

    /// Number of elements written so far.
    pub fn written_count(&self) -> usize {
        self.written.count()
    }

    /// True when every element within the current extents is written.
    pub fn is_complete(&self) -> bool {
        self.written.all_set()
    }

    /// The written-element bitmap (linearized against [`AgeData::extents`]).
    /// The dependency analyzer's rescan path uses this to resynchronize its
    /// event-derived accounting views with field ground truth.
    pub fn written(&self) -> &Bitmap {
        &self.written
    }

    fn grow(&mut self, ty: ScalarType, new_extents: Extents) {
        debug_assert!(self.extents.fits_within(&new_extents));
        let mut new_buffer = Buffer::zeroed(ty, new_extents.clone());
        // Re-linearize written elements into the grown layout; row-major
        // linear indices shift whenever an inner dimension grows.
        for lin in self.written.iter_set() {
            let idx = self.extents.delinearize(lin);
            let new_lin = new_extents
                .linearize(&idx)
                .expect("old index fits grown extents");
            new_buffer
                .set_value(new_lin, self.buffer.value(lin))
                .expect("same scalar type");
        }
        self.written = remap_for_resize(&self.written, &self.extents, &new_extents);
        self.written.grow(new_extents.len());
        self.buffer = new_buffer;
        self.extents = new_extents;
    }
}

/// The outcome of a store operation, consumed by the runtime to emit
/// store / resize events on the pub-sub bus.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreOutcome {
    /// New extents, when the store triggered an implicit resize.
    pub resized: Option<Extents>,
    /// Number of elements written by this store.
    pub stored: usize,
    /// True when this store completed the age (all elements written).
    pub age_complete: bool,
    /// Elements skipped by an idempotent store because they were already
    /// written with the same value (always 0 for strict stores).
    pub deduped: usize,
}

/// An aged, write-once, implicitly-resizable multi-dimensional field.
///
/// One `Field` owns all live ages of one program field. Ages are created
/// lazily on first store, inherit the latest known extents, and can be
/// garbage collected once the runtime proves no future kernel instance will
/// fetch them.
#[derive(Debug)]
pub struct Field {
    id: FieldId,
    def: FieldDef,
    ages: BTreeMap<u64, AgeData>,
    /// Ages below this have been garbage collected.
    collected_below: u64,
    /// The most recently observed extents; newly created ages start here.
    template_extents: Option<Extents>,
}

impl Field {
    /// Create a field from its definition.
    pub fn new(id: FieldId, def: FieldDef) -> Field {
        let template_extents = def.initial_extents.clone();
        Field {
            id,
            def,
            ages: BTreeMap::new(),
            collected_below: 0,
            template_extents,
        }
    }

    /// The field's id.
    pub fn id(&self) -> FieldId {
        self.id
    }

    /// Source-level name.
    pub fn name(&self) -> &str {
        &self.def.name
    }

    /// Element type.
    pub fn ty(&self) -> ScalarType {
        self.def.ty
    }

    /// Number of (non-age) dimensions.
    pub fn ndim(&self) -> usize {
        self.def.ndim
    }

    /// The extents of an age, if that age has any data.
    pub fn extents(&self, age: Age) -> Option<&Extents> {
        self.ages.get(&age.0).map(|a| a.extents())
    }

    /// Ages currently resident.
    pub fn resident_ages(&self) -> impl Iterator<Item = Age> + '_ {
        self.ages.keys().map(|&a| Age(a))
    }

    /// Per-age data access (for instrumentation and tests).
    pub fn age_data(&self, age: Age) -> Option<&AgeData> {
        self.ages.get(&age.0)
    }

    /// True when the age exists and every element in its extents has been
    /// written. This is the runnability condition for whole-field fetches.
    pub fn is_complete(&self, age: Age) -> bool {
        self.ages.get(&age.0).is_some_and(|a| a.is_complete())
    }

    /// Number of elements written for an age (0 if absent).
    pub fn written_count(&self, age: Age) -> usize {
        self.ages.get(&age.0).map_or(0, |a| a.written_count())
    }

    /// True when every element of `region` has been written for `age`.
    pub fn region_written(&self, age: Age, region: &Region) -> bool {
        let Some(a) = self.ages.get(&age.0) else {
            return false;
        };
        let Ok((mut runs, run)) = region.runs(&a.extents) else {
            return false;
        };
        // A region that resolves to zero elements is trivially complete
        // only when extents are known *and* nonzero overall is not required:
        // P2G treats empty slices as satisfied.
        runs.all(|start| a.written.all_set_run(start, run))
    }

    fn check_age_live(&self, age: Age) -> Result<(), FieldError> {
        if age.0 < self.collected_below {
            return Err(FieldError::AgeCollected {
                field: self.def.name.clone(),
                age,
            });
        }
        Ok(())
    }

    /// Compute the extents a store into `region` with `payload` requires,
    /// given the current extents (if any).
    fn required_extents(
        &self,
        current: Option<&Extents>,
        region: &Region,
        payload_shape: &Extents,
    ) -> Result<Extents, FieldError> {
        if region.ndim() != self.def.ndim {
            return Err(FieldError::DimensionMismatch {
                expected: self.def.ndim,
                found: region.ndim(),
            });
        }
        let mut required = Vec::with_capacity(self.def.ndim);
        // Payload dims map one-to-one when shapes agree in rank; when the
        // payload is flat (1-D) we distribute only for `All` selectors on a
        // 1-D field. For robustness we use the payload's shape when its rank
        // matches, else fall back to treating `All` as "current extent".
        let payload_ranked = payload_shape.ndim() == self.def.ndim;
        for (d, sel) in region.0.iter().enumerate() {
            let cur = current.map_or(0, |e| e.dim(d));
            let need = match *sel {
                DimSel::Index(i) => (i + 1).max(cur),
                DimSel::Range { start, len } => (start + len).max(cur),
                DimSel::All => {
                    if payload_ranked {
                        payload_shape.dim(d).max(cur)
                    } else if cur > 0 {
                        cur
                    } else if self.def.ndim == 1 {
                        payload_shape.len()
                    } else {
                        return Err(FieldError::DimensionMismatch {
                            expected: self.def.ndim,
                            found: payload_shape.ndim(),
                        });
                    }
                }
            };
            required.push(need);
        }
        Ok(Extents(required))
    }

    /// Store `payload` into `region` of `age`, creating/resizing the age as
    /// needed, enforcing write-once semantics per element.
    pub fn store(
        &mut self,
        age: Age,
        region: &Region,
        payload: &Buffer,
    ) -> Result<StoreOutcome, FieldError> {
        self.store_inner(age, region, payload, false)
    }

    /// Idempotent store: elements already written with the *same* value are
    /// skipped (counted in [`StoreOutcome::deduped`]); an already-written
    /// element with a *different* value is a [`FieldError::ConflictingStore`].
    ///
    /// This is the distributed-delivery variant of [`Field::store`]: because
    /// fields are write-once, duplicated message delivery and re-execution
    /// of kernel instances during failure recovery are safe — replaying a
    /// store is a no-op.
    pub fn store_idempotent(
        &mut self,
        age: Age,
        region: &Region,
        payload: &Buffer,
    ) -> Result<StoreOutcome, FieldError> {
        self.store_inner(age, region, payload, true)
    }

    fn store_inner(
        &mut self,
        age: Age,
        region: &Region,
        payload: &Buffer,
        dedup: bool,
    ) -> Result<StoreOutcome, FieldError> {
        self.check_age_live(age)?;
        if payload.scalar_type() != self.def.ty {
            return Err(FieldError::TypeMismatch {
                expected: self.def.ty,
                found: payload.scalar_type(),
            });
        }

        // When the age has no data yet, the latest known (template)
        // extents stand in for the current extents, so `All` selectors on
        // fresh ages resolve to the field's established shape.
        let current = self
            .ages
            .get(&age.0)
            .map(|a| a.extents().clone())
            .or_else(|| self.template_extents.clone());
        let required = self.required_extents(current.as_ref(), region, payload.shape())?;

        let mut resized = None;
        match self.ages.get_mut(&age.0) {
            Some(data) => {
                if !required.fits_within(data.extents()) {
                    let grown = data.extents().union(&required);
                    data.grow(self.def.ty, grown.clone());
                    resized = Some(grown);
                }
            }
            None => {
                // New age: start from the template extents so element-wise
                // producers see the full expected shape immediately.
                let start = match &self.template_extents {
                    Some(t) if required.fits_within(t) => t.clone(),
                    Some(t) => t.union(&required),
                    None => required.clone(),
                };
                let is_new_shape = self.template_extents.as_ref() != Some(&start);
                self.ages
                    .insert(age.0, AgeData::new(self.def.ty, start.clone()));
                if is_new_shape {
                    resized = Some(start);
                }
            }
        }

        let data = self.ages.get_mut(&age.0).expect("age just ensured");
        let region_len = region.len(data.extents())?;
        if region_len != payload.len() {
            return Err(FieldError::LengthMismatch {
                expected: region_len,
                found: payload.len(),
            });
        }

        // Copy in run by run: a run (the region's longest contiguous
        // stretch, see `Region::runs`) is contiguous in payload and age
        // buffer alike, so a run with no element written yet is one slice
        // copy. A run overlapping written elements goes element by
        // element, enforcing write-once per element.
        let AgeData {
            extents,
            buffer,
            written,
        } = &mut *data;
        let (runs, run) = region.runs(extents)?;
        let mut stored = 0usize;
        let mut deduped = 0usize;
        for (r, start) in runs.enumerate() {
            let from = r * run;
            if written.set_run(start, run) {
                buffer
                    .copy_from(start, payload, from, run)
                    .expect("type checked above");
                stored += run;
                continue;
            }
            for (src, dst) in (from..from + run).zip(start..) {
                if !written.set(dst) {
                    if !dedup {
                        return Err(FieldError::WriteOnceViolation {
                            field: self.def.name.clone(),
                            age,
                            linear_index: dst,
                        });
                    }
                    if buffer.value(dst) != payload.value(src) {
                        return Err(FieldError::ConflictingStore {
                            field: self.def.name.clone(),
                            age,
                            linear_index: dst,
                        });
                    }
                    deduped += 1;
                    continue;
                }
                buffer
                    .set_value(dst, payload.value(src))
                    .expect("type checked above");
                stored += 1;
            }
        }

        if let Some(ref new_ext) = resized {
            self.template_extents = Some(match &self.template_extents {
                Some(t) => t.union(new_ext),
                None => new_ext.clone(),
            });
        }

        let age_complete = data.is_complete();
        Ok(StoreOutcome {
            resized,
            stored,
            age_complete,
            deduped,
        })
    }

    /// Store a single element.
    pub fn store_element(
        &mut self,
        age: Age,
        index: &[usize],
        value: Value,
    ) -> Result<StoreOutcome, FieldError> {
        self.store(age, &Region::point(index), &Buffer::scalar(value))
    }

    /// Fetch a copy of `region` for `age`. Every element must have been
    /// written — the dependency analyzer guarantees this before dispatching
    /// a kernel instance, so failure indicates a scheduler bug.
    pub fn fetch(&self, age: Age, region: &Region) -> Result<Buffer, FieldError> {
        self.check_age_live(age)?;
        let data = self
            .ages
            .get(&age.0)
            .ok_or_else(|| FieldError::UnwrittenRead {
                field: self.def.name.clone(),
                age,
                region: region.clone(),
            })?;
        let shape = region.shape(&data.extents)?;
        // Run by run, appended to an unfilled buffer: a fully written run
        // is one copy.
        let mut out = BufferData::with_capacity(self.def.ty, shape.len());
        let (runs, run) = region.runs(&data.extents)?;
        for start in runs {
            if !data.written.all_set_run(start, run) {
                return Err(FieldError::UnwrittenRead {
                    field: self.def.name.clone(),
                    age,
                    region: region.clone(),
                });
            }
            out.extend_from(data.buffer.data(), start, run)
                .expect("same scalar type");
        }
        Ok(Buffer::from_data(out, shape).expect("the runs cover the region"))
    }

    /// Fetch a single element's value.
    pub fn fetch_element(&self, age: Age, index: &[usize]) -> Result<Value, FieldError> {
        Ok(self.fetch(age, &Region::point(index))?.value(0))
    }

    /// Snapshot everything written for `age` as `(region, buffer)` pairs
    /// suitable for re-injection into another replica: one pair per maximal
    /// innermost-dimension run of written elements. Used by the cluster's
    /// failure-recovery path to re-forward a survivor's data to the new
    /// owners of a failed node's kernels.
    ///
    /// Regions are always explicit index/range selectors — never
    /// [`Region::all`] — because `All` resolves against the *receiver's*
    /// extents, and an implicitly-sized replica may have resized past this
    /// one (a "complete" age here can be a transiently-complete prefix).
    pub fn snapshot_written(&self, age: Age) -> Vec<(Region, Buffer)> {
        let Some(data) = self.ages.get(&age.0) else {
            return Vec::new();
        };
        // Emit maximal runs of consecutive linear indices. Row-major layout
        // means a run within one innermost-dimension row is a contiguous
        // `Range` selector on the last dimension.
        let extents = &data.extents;
        let inner = if extents.ndim() == 0 {
            1
        } else {
            extents.dim(extents.ndim() - 1).max(1)
        };
        let mut out = Vec::new();
        let mut run: Option<(usize, usize)> = None; // (start_lin, len)
        let flush = |run: &mut Option<(usize, usize)>, out: &mut Vec<(Region, Buffer)>| {
            if let Some((start, len)) = run.take() {
                let idx = extents.delinearize(start);
                let mut sels: Vec<DimSel> = idx.iter().map(|&i| DimSel::Index(i)).collect();
                if let Some(last) = sels.last_mut() {
                    let first = idx[idx.len() - 1];
                    *last = DimSel::Range { start: first, len };
                }
                let region = Region(sels);
                if let Ok(buffer) = self.fetch(age, &region) {
                    out.push((region, buffer));
                }
            }
        };
        for lin in data.written.iter_set() {
            match run {
                Some((start, len)) if lin == start + len && (start % inner) + len < inner => {
                    run = Some((start, len + 1));
                }
                _ => {
                    flush(&mut run, &mut out);
                    run = Some((lin, 1));
                }
            }
        }
        flush(&mut run, &mut out);
        out
    }

    /// Garbage collect one age, freeing its buffer. Idempotent.
    pub fn collect_age(&mut self, age: Age) -> bool {
        let removed = self.ages.remove(&age.0).is_some();
        if removed {
            self.collected_below = self.collected_below.max(age.0 + 1);
        }
        removed
    }

    /// Garbage collect every age strictly below `age`.
    pub fn collect_below(&mut self, age: Age) -> usize {
        let keys: Vec<u64> = self.ages.range(..age.0).map(|(&k, _)| k).collect();
        let n = keys.len();
        for k in keys {
            self.ages.remove(&k);
        }
        self.collected_below = self.collected_below.max(age.0);
        n
    }

    /// Approximate resident memory in bytes (buffers + bitmaps).
    pub fn bytes_resident(&self) -> usize {
        self.ages
            .values()
            .map(|a| a.extents.len() * self.def.ty.size_bytes() + a.written.len() / 8)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f1d(name: &str, ty: ScalarType) -> Field {
        Field::new(FieldId(0), FieldDef::new(name, ty, 1))
    }

    #[test]
    fn store_whole_buffer_sets_extents() {
        let mut f = f1d("m_data", ScalarType::I32);
        let out = f
            .store(
                Age(0),
                &Region::all(1),
                &Buffer::from_vec(vec![10i32, 11, 12, 13, 14]),
            )
            .unwrap();
        assert_eq!(out.resized, Some(Extents::new([5])));
        assert_eq!(out.stored, 5);
        assert!(out.age_complete);
        assert!(f.is_complete(Age(0)));
        assert_eq!(f.fetch_element(Age(0), &[3]).unwrap(), Value::I32(13));
    }

    #[test]
    fn element_stores_accumulate_to_completeness() {
        let mut f = Field::new(
            FieldId(0),
            FieldDef::with_extents("p_data", ScalarType::I32, Extents::new([3])),
        );
        for x in 0..3 {
            let out = f
                .store_element(Age(0), &[x], Value::I32(x as i32 * 2))
                .unwrap();
            assert_eq!(out.age_complete, x == 2);
        }
        assert_eq!(f.written_count(Age(0)), 3);
        let b = f.fetch(Age(0), &Region::all(1)).unwrap();
        assert_eq!(b.as_i32().unwrap(), &[0, 2, 4]);
    }

    #[test]
    fn write_once_violation_same_age() {
        let mut f = f1d("v", ScalarType::I32);
        f.store_element(Age(0), &[0], Value::I32(1)).unwrap();
        let err = f.store_element(Age(0), &[0], Value::I32(2)).unwrap_err();
        assert!(matches!(err, FieldError::WriteOnceViolation { .. }));
    }

    #[test]
    fn aging_allows_same_position_new_age() {
        let mut f = f1d("v", ScalarType::I32);
        f.store_element(Age(0), &[0], Value::I32(1)).unwrap();
        f.store_element(Age(1), &[0], Value::I32(2)).unwrap();
        assert_eq!(f.fetch_element(Age(0), &[0]).unwrap(), Value::I32(1));
        assert_eq!(f.fetch_element(Age(1), &[0]).unwrap(), Value::I32(2));
    }

    #[test]
    fn fetch_unwritten_is_error() {
        let mut f = Field::new(
            FieldId(0),
            FieldDef::with_extents("v", ScalarType::I32, Extents::new([2])),
        );
        f.store_element(Age(0), &[0], Value::I32(1)).unwrap();
        assert!(matches!(
            f.fetch(Age(0), &Region::all(1)),
            Err(FieldError::UnwrittenRead { .. })
        ));
        assert!(f.fetch(Age(0), &Region::point(&[0])).is_ok());
    }

    #[test]
    fn implicit_resize_on_out_of_bounds_store() {
        let mut f = f1d("v", ScalarType::I32);
        f.store_element(Age(0), &[0], Value::I32(1)).unwrap();
        let out = f.store_element(Age(0), &[7], Value::I32(8)).unwrap();
        assert_eq!(out.resized, Some(Extents::new([8])));
        assert_eq!(f.fetch_element(Age(0), &[0]).unwrap(), Value::I32(1));
        assert_eq!(f.fetch_element(Age(0), &[7]).unwrap(), Value::I32(8));
        assert!(!f.is_complete(Age(0)));
    }

    #[test]
    fn resize_preserves_2d_data() {
        let mut f = Field::new(FieldId(0), FieldDef::new("m", ScalarType::I32, 2));
        f.store_element(Age(0), &[0, 0], Value::I32(1)).unwrap();
        f.store_element(Age(0), &[1, 1], Value::I32(5)).unwrap();
        // Growing the inner dimension shifts row-major linearization.
        f.store_element(Age(0), &[0, 3], Value::I32(9)).unwrap();
        assert_eq!(f.extents(Age(0)), Some(&Extents::new([2, 4])));
        assert_eq!(f.fetch_element(Age(0), &[1, 1]).unwrap(), Value::I32(5));
        assert_eq!(f.fetch_element(Age(0), &[0, 0]).unwrap(), Value::I32(1));
        assert_eq!(f.fetch_element(Age(0), &[0, 3]).unwrap(), Value::I32(9));
    }

    #[test]
    fn template_extents_propagate_to_new_ages() {
        let mut f = f1d("v", ScalarType::I32);
        f.store(Age(0), &Region::all(1), &Buffer::from_vec(vec![1i32, 2, 3]))
            .unwrap();
        // Age 1 starts with the template shape: storing one element does
        // not complete it.
        let out = f.store_element(Age(1), &[0], Value::I32(9)).unwrap();
        assert!(!out.age_complete);
        assert_eq!(f.extents(Age(1)), Some(&Extents::new([3])));
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut f = f1d("v", ScalarType::I32);
        let err = f
            .store(Age(0), &Region::all(1), &Buffer::from_vec(vec![1.0f32]))
            .unwrap_err();
        assert!(matches!(err, FieldError::TypeMismatch { .. }));
    }

    #[test]
    fn length_mismatch_rejected() {
        let mut f = Field::new(
            FieldId(0),
            FieldDef::with_extents("v", ScalarType::I32, Extents::new([4])),
        );
        let err = f
            .store(Age(0), &Region::all(1), &Buffer::from_vec(vec![1i32, 2]))
            .unwrap_err();
        assert!(matches!(err, FieldError::LengthMismatch { .. }));
    }

    #[test]
    fn gc_frees_and_blocks_access() {
        let mut f = f1d("v", ScalarType::I32);
        f.store(Age(0), &Region::all(1), &Buffer::from_vec(vec![1i32]))
            .unwrap();
        f.store(Age(1), &Region::point(&[0]), &Buffer::from_vec(vec![2i32]))
            .unwrap();
        assert!(f.collect_age(Age(0)));
        assert!(!f.collect_age(Age(0)));
        assert!(matches!(
            f.fetch(Age(0), &Region::all(1)),
            Err(FieldError::AgeCollected { .. })
        ));
        assert!(matches!(
            f.store_element(Age(0), &[0], Value::I32(1)),
            Err(FieldError::AgeCollected { .. })
        ));
        // Age 1 still accessible.
        assert_eq!(f.fetch_element(Age(1), &[0]).unwrap(), Value::I32(2));
    }

    #[test]
    fn collect_below_sweeps_ages() {
        let mut f = f1d("v", ScalarType::I32);
        for a in 0..5 {
            f.store(
                Age(a),
                &Region::point(&[0]),
                &Buffer::from_vec(vec![a as i32]),
            )
            .unwrap();
        }
        assert_eq!(f.collect_below(Age(3)), 3);
        assert_eq!(f.resident_ages().count(), 2);
        assert!(f.bytes_resident() > 0);
    }

    #[test]
    fn region_written_queries() {
        let mut f = Field::new(
            FieldId(0),
            FieldDef::with_extents("v", ScalarType::I32, Extents::new([4])),
        );
        f.store_element(Age(0), &[1], Value::I32(1)).unwrap();
        f.store_element(Age(0), &[2], Value::I32(2)).unwrap();
        assert!(f.region_written(Age(0), &Region(vec![DimSel::Range { start: 1, len: 2 }])));
        assert!(!f.region_written(Age(0), &Region::all(1)));
        assert!(!f.region_written(Age(1), &Region::all(1)));
    }

    #[test]
    fn store_2d_region_from_2d_buffer() {
        let mut f = Field::new(
            FieldId(0),
            FieldDef::with_extents("mb", ScalarType::U8, Extents::new([4, 4])),
        );
        let block = Buffer::from_vec(vec![1u8, 2, 3, 4])
            .reshape(Extents::new([2, 2]))
            .unwrap();
        let region = Region(vec![
            DimSel::Range { start: 2, len: 2 },
            DimSel::Range { start: 0, len: 2 },
        ]);
        f.store(Age(0), &region, &block).unwrap();
        assert_eq!(f.fetch_element(Age(0), &[2, 0]).unwrap(), Value::U8(1));
        assert_eq!(f.fetch_element(Age(0), &[3, 1]).unwrap(), Value::U8(4));
        let back = f.fetch(Age(0), &region).unwrap();
        assert_eq!(back.as_u8().unwrap(), &[1, 2, 3, 4]);
    }

    #[test]
    fn idempotent_store_dedups_identical_values() {
        let mut f = Field::new(
            FieldId(0),
            FieldDef::with_extents("f", ScalarType::I32, Extents::new([4])),
        );
        let payload = Buffer::from_vec(vec![1i32, 2, 3, 4]);
        let first = f
            .store_idempotent(Age(0), &Region::all(1), &payload)
            .unwrap();
        assert_eq!(first.stored, 4);
        assert_eq!(first.deduped, 0);
        // Exact replay: everything dedups, nothing stored.
        let replay = f
            .store_idempotent(Age(0), &Region::all(1), &payload)
            .unwrap();
        assert_eq!(replay.stored, 0);
        assert_eq!(replay.deduped, 4);
        assert!(replay.age_complete);
        // The strict path still rejects the duplicate.
        assert!(matches!(
            f.store(Age(0), &Region::all(1), &payload),
            Err(FieldError::WriteOnceViolation { .. })
        ));
        // A conflicting value is a partitioning bug, not a dedup.
        let wrong = Buffer::from_vec(vec![9i32, 2, 3, 4]);
        assert!(matches!(
            f.store_idempotent(Age(0), &Region::all(1), &wrong),
            Err(FieldError::ConflictingStore { .. })
        ));
    }

    #[test]
    fn idempotent_store_partial_overlap() {
        let mut f = Field::new(
            FieldId(0),
            FieldDef::with_extents("f", ScalarType::I32, Extents::new([4])),
        );
        f.store_element(Age(0), &[1], Value::I32(11)).unwrap();
        let payload = Buffer::from_vec(vec![10i32, 11, 12, 13]);
        let out = f
            .store_idempotent(Age(0), &Region::all(1), &payload)
            .unwrap();
        assert_eq!(out.stored, 3);
        assert_eq!(out.deduped, 1);
        assert!(out.age_complete);
        assert_eq!(
            f.fetch(Age(0), &Region::all(1)).unwrap().as_i32().unwrap(),
            &[10, 11, 12, 13]
        );
    }

    #[test]
    fn block_store_mixes_fresh_and_overlapping_rows() {
        let mut f = Field::new(
            FieldId(0),
            FieldDef::with_extents("f", ScalarType::I32, Extents::new([3, 4])),
        );
        f.store_element(Age(0), &[1, 2], Value::I32(5)).unwrap();
        let block = Buffer::from_vec((1..=6).collect::<Vec<i32>>())
            .reshape(Extents::new([2, 3]))
            .unwrap();
        let region = Region(vec![
            DimSel::Range { start: 0, len: 2 },
            DimSel::Range { start: 1, len: 3 },
        ]);
        // Row 0 is fresh (one copy); row 1 holds the one written element.
        let out = f.store_idempotent(Age(0), &region, &block).unwrap();
        assert_eq!((out.stored, out.deduped), (5, 1));
        assert_eq!(f.written_count(Age(0)), 6);
        assert_eq!(
            f.fetch(Age(0), &region).unwrap().as_i32().unwrap(),
            &[1, 2, 3, 4, 5, 6]
        );
        assert!(matches!(
            f.store(
                Age(0),
                &Region::point(&[0, 0]),
                &Buffer::from_vec(vec![0i32])
            )
            .map(|o| o.stored),
            Ok(1)
        ));
        assert!(matches!(
            f.store(Age(0), &region, &block),
            Err(FieldError::WriteOnceViolation {
                linear_index: 1,
                ..
            })
        ));
    }

    #[test]
    fn coalesced_run_overlapping_written_elements() {
        // All × All over [3, 4] is one 12-element run; two elements of it
        // are already written.
        let partly_written = || {
            let mut f = Field::new(
                FieldId(0),
                FieldDef::with_extents("f", ScalarType::I32, Extents::new([3, 4])),
            );
            f.store_element(Age(0), &[1, 2], Value::I32(6)).unwrap();
            f.store_element(Age(0), &[2, 0], Value::I32(8)).unwrap();
            f
        };
        let plane = Buffer::from_vec((0..12).collect::<Vec<i32>>())
            .reshape(Extents::new([3, 4]))
            .unwrap();
        // The first written element in row-major order is the violation.
        assert!(matches!(
            partly_written().store(Age(0), &Region::all(2), &plane),
            Err(FieldError::WriteOnceViolation {
                linear_index: 6,
                ..
            })
        ));
        // The idempotent store lands the other ten and dedups the two.
        let mut f = partly_written();
        let out = f.store_idempotent(Age(0), &Region::all(2), &plane).unwrap();
        assert_eq!((out.stored, out.deduped, out.age_complete), (10, 2, true));
        assert_eq!(
            f.fetch(Age(0), &Region::all(2)).unwrap().as_i32().unwrap(),
            &(0..12).collect::<Vec<i32>>()[..]
        );
        // A replay of the whole plane dedups all of it.
        let replay = f.store_idempotent(Age(0), &Region::all(2), &plane).unwrap();
        assert_eq!((replay.stored, replay.deduped), (0, 12));
        // A range of whole rows is one run too: the violation is its first
        // written element.
        let rows = Region(vec![DimSel::Range { start: 1, len: 2 }, DimSel::All]);
        let eight = Buffer::from_vec(vec![0i32; 8])
            .reshape(Extents::new([2, 4]))
            .unwrap();
        assert!(matches!(
            f.store(Age(0), &rows, &eight),
            Err(FieldError::WriteOnceViolation {
                linear_index: 4,
                ..
            })
        ));
    }

    #[test]
    fn snapshot_written_complete_age_covers_every_element_explicitly() {
        // Even a complete age snapshots as explicit per-row ranges (never
        // `Region::all`, which would resolve against the receiver's
        // extents — wrong when replicas resized at different times).
        let mut f = Field::new(
            FieldId(0),
            FieldDef::with_extents("f", ScalarType::I32, Extents::new([2, 3])),
        );
        let payload = Buffer::from_vec((0..6).collect::<Vec<i32>>())
            .reshape(Extents::new([2, 3]))
            .unwrap();
        f.store(Age(0), &Region::all(2), &payload).unwrap();
        let snap = f.snapshot_written(Age(0));
        assert_eq!(snap.len(), 2, "one run per row: {snap:?}");
        assert!(snap.iter().all(|(r, _)| r != &Region::all(2)));
        let mut replica = Field::new(
            FieldId(0),
            FieldDef::with_extents("f", ScalarType::I32, Extents::new([2, 3])),
        );
        for (region, buffer) in &snap {
            replica.store_idempotent(Age(0), region, buffer).unwrap();
        }
        assert_eq!(
            replica
                .fetch(Age(0), &Region::all(2))
                .unwrap()
                .as_i32()
                .unwrap(),
            &[0, 1, 2, 3, 4, 5]
        );
    }

    #[test]
    fn snapshot_written_partial_age_replays_into_empty_replica() {
        let mut f = Field::new(
            FieldId(0),
            FieldDef::with_extents("f", ScalarType::I32, Extents::new([3, 4])),
        );
        // Scattered writes: a run in row 0, a lone element in row 2.
        f.store_element(Age(0), &[0, 1], Value::I32(1)).unwrap();
        f.store_element(Age(0), &[0, 2], Value::I32(2)).unwrap();
        f.store_element(Age(0), &[2, 3], Value::I32(23)).unwrap();
        let snap = f.snapshot_written(Age(0));
        assert_eq!(snap.len(), 2, "one run + one point: {snap:?}");

        let mut replica = Field::new(
            FieldId(0),
            FieldDef::with_extents("f", ScalarType::I32, Extents::new([3, 4])),
        );
        for (region, buffer) in &snap {
            replica.store_idempotent(Age(0), region, buffer).unwrap();
        }
        assert_eq!(replica.written_count(Age(0)), 3);
        assert_eq!(
            replica.fetch_element(Age(0), &[0, 2]).unwrap(),
            Value::I32(2)
        );
        assert_eq!(
            replica.fetch_element(Age(0), &[2, 3]).unwrap(),
            Value::I32(23)
        );
        assert!(f.snapshot_written(Age(1)).is_empty());
    }
}
