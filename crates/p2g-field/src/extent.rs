//! N-dimensional extents, regions (slices) and row-major index math.

use crate::error::FieldError;

/// The shape of one age of a field: the size of each dimension.
///
/// Extents may grow during execution — P2G supports *implicit resizing*:
/// storing past the current extent of a dimension enlarges it, and the
/// resize event is propagated so dependent kernels can dispatch additional
/// instances.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Extents(pub Vec<usize>);

impl Extents {
    /// Create extents for the given per-dimension sizes.
    pub fn new(dims: impl Into<Vec<usize>>) -> Extents {
        Extents(dims.into())
    }

    /// Number of dimensions.
    #[inline]
    pub fn ndim(&self) -> usize {
        self.0.len()
    }

    /// Total number of elements (product of dimension sizes).
    #[inline]
    pub fn len(&self) -> usize {
        self.0.iter().product()
    }

    /// True when any dimension is zero-sized.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Size of one dimension.
    #[inline]
    pub fn dim(&self, d: usize) -> usize {
        self.0[d]
    }

    /// Row-major linearization of a multi-index.
    ///
    /// Returns `None` if out of bounds or wrong dimensionality.
    #[inline]
    pub fn linearize(&self, index: &[usize]) -> Option<usize> {
        if index.len() != self.0.len() {
            return None;
        }
        let mut lin = 0usize;
        for (i, (&ix, &ext)) in index.iter().zip(&self.0).enumerate() {
            if ix >= ext {
                return None;
            }
            let _ = i;
            lin = lin * ext + ix;
        }
        Some(lin)
    }

    /// Inverse of [`Extents::linearize`].
    pub fn delinearize(&self, mut lin: usize) -> Vec<usize> {
        let mut idx = vec![0usize; self.0.len()];
        for d in (0..self.0.len()).rev() {
            let ext = self.0[d];
            idx[d] = lin % ext;
            lin /= ext;
        }
        idx
    }

    /// Component-wise maximum with another extent set.
    pub fn union(&self, other: &Extents) -> Extents {
        Extents(
            self.0
                .iter()
                .zip(&other.0)
                .map(|(&a, &b)| a.max(b))
                .collect(),
        )
    }

    /// True when `self` fits entirely inside `other`.
    pub fn fits_within(&self, other: &Extents) -> bool {
        self.0.len() == other.0.len() && self.0.iter().zip(&other.0).all(|(&a, &b)| a <= b)
    }
}

impl std::fmt::Display for Extents {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[")?;
        for (i, e) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, "]")
    }
}

/// Selection along one dimension of a region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DimSel {
    /// A single index.
    Index(usize),
    /// A contiguous range `[start, start+len)`. Used by the low-level
    /// scheduler when it *combines* several fine-grained kernel instances
    /// into one coarser instance (Figure 4, Age=2 in the paper).
    Range { start: usize, len: usize },
    /// The whole dimension, whatever its (current) extent.
    All,
}

impl DimSel {
    /// Resolve against a concrete extent to a `(start, len)` pair.
    #[inline]
    pub fn resolve(self, extent: usize) -> (usize, usize) {
        match self {
            DimSel::Index(i) => (i, 1),
            DimSel::Range { start, len } => (start, len),
            DimSel::All => (0, extent),
        }
    }
}

/// An N-dimensional rectangular slice of a field: one [`DimSel`] per
/// dimension. This is the granularity unit of fetch/store statements.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Region(pub Vec<DimSel>);

impl Region {
    /// Region selecting one element.
    pub fn point(index: &[usize]) -> Region {
        Region(index.iter().map(|&i| DimSel::Index(i)).collect())
    }

    /// Region selecting everything.
    pub fn all(ndim: usize) -> Region {
        Region(vec![DimSel::All; ndim])
    }

    /// Number of dimensions this region addresses.
    #[inline]
    pub fn ndim(&self) -> usize {
        self.0.len()
    }

    /// The shape of the region when resolved against `extents`.
    pub fn shape(&self, extents: &Extents) -> Result<Extents, FieldError> {
        if self.0.len() != extents.ndim() {
            return Err(FieldError::DimensionMismatch {
                expected: extents.ndim(),
                found: self.0.len(),
            });
        }
        Ok(Extents(
            self.0
                .iter()
                .zip(&extents.0)
                .map(|(sel, &ext)| sel.resolve(ext).1)
                .collect(),
        ))
    }

    /// Check the region is fully inside `extents` and return the resolved
    /// per-dimension `(start, len)` pairs.
    pub fn resolve(&self, extents: &Extents) -> Result<Vec<(usize, usize)>, FieldError> {
        if self.0.len() != extents.ndim() {
            return Err(FieldError::DimensionMismatch {
                expected: extents.ndim(),
                found: self.0.len(),
            });
        }
        let mut out = Vec::with_capacity(self.0.len());
        for (sel, &ext) in self.0.iter().zip(&extents.0) {
            let (start, len) = sel.resolve(ext);
            if start + len > ext {
                return Err(FieldError::OutOfBounds {
                    index: vec![start + len - 1],
                    extents: extents.clone(),
                });
            }
            out.push((start, len));
        }
        Ok(out)
    }

    /// The region as rows: the linear index (against `extents`) of the
    /// first element of each innermost-dimension run, in row-major order,
    /// and the run length. A row is contiguous in a row-major buffer;
    /// [`RegionIter::index`] gives the multi-index of the row's first
    /// element. The region must lie within `extents`.
    pub fn rows<'a>(&self, extents: &'a Extents) -> Result<(RegionIter<'a>, usize), FieldError> {
        let mut spans = self.resolve(extents)?;
        let row = match spans.last_mut() {
            Some((_, len)) => std::mem::replace(len, (*len).min(1)),
            None => 1,
        };
        Ok((RegionIter::new(spans, extents), row))
    }

    /// The region as maximal runs: like [`Region::rows`], but a run also
    /// spans every trailing dimension the region selects whole (start 0,
    /// length = extent), so it is the longest stretch of the region that
    /// is contiguous in a row-major buffer. `All` over every dimension is
    /// one run. [`RegionIter::index`] gives the multi-index of the run's
    /// first element. The region must lie within `extents`.
    pub fn runs<'a>(&self, extents: &'a Extents) -> Result<(RegionIter<'a>, usize), FieldError> {
        let mut spans = self.resolve(extents)?;
        // `outer` is the innermost dimension the region does not select
        // whole; the run is its span times everything inside it.
        let whole = spans
            .iter()
            .zip(&extents.0)
            .rev()
            .take_while(|&(&(start, len), &ext)| start == 0 && len == ext)
            .count();
        let outer = spans.len().saturating_sub(whole + 1);
        let mut run = 1;
        for (_, len) in &mut spans[outer..] {
            run *= *len;
            *len = (*len).min(1);
        }
        Ok((RegionIter::new(spans, extents), run))
    }

    /// Resolve every selector against `extents` into an explicit
    /// `Index`/`Range` selector — in particular `All` becomes the concrete
    /// `Range` it denotes *right now*.
    ///
    /// Store events carry regions in this form: an `All` selector is only
    /// meaningful relative to the extents at the moment the store was
    /// applied, and events may be observed after later stores have grown
    /// the field (the dependency analyzer processes them asynchronously).
    pub fn resolved_against(&self, extents: &Extents) -> Region {
        Region(
            self.0
                .iter()
                .zip(&extents.0)
                .map(|(sel, &ext)| match *sel {
                    DimSel::Index(i) => DimSel::Index(i),
                    DimSel::Range { start, len } => DimSel::Range { start, len },
                    DimSel::All => DimSel::Range { start: 0, len: ext },
                })
                .collect(),
        )
    }

    /// Number of elements this region selects under `extents`.
    pub fn len(&self, extents: &Extents) -> Result<usize, FieldError> {
        Ok(self.shape(extents)?.len())
    }

    /// True if the region selects no elements under `extents`.
    pub fn is_empty(&self, extents: &Extents) -> Result<bool, FieldError> {
        Ok(self.len(extents)? == 0)
    }
}

impl std::fmt::Display for Region {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for sel in &self.0 {
            match sel {
                DimSel::Index(i) => write!(f, "[{i}]")?,
                DimSel::Range { start, len } => write!(f, "[{start}..{}]", start + len)?,
                DimSel::All => write!(f, "[*]")?,
            }
        }
        Ok(())
    }
}

/// Row-major iterator over the linear indices of a region.
pub struct RegionIter<'a> {
    spans: Vec<(usize, usize)>,
    extents: &'a Extents,
    cursor: Vec<usize>,
    started: bool,
    done: bool,
}

impl<'a> RegionIter<'a> {
    fn new(spans: Vec<(usize, usize)>, extents: &'a Extents) -> RegionIter<'a> {
        let done = spans.iter().any(|&(_, len)| len == 0);
        let cursor = spans.iter().map(|&(start, _)| start).collect();
        RegionIter {
            spans,
            extents,
            cursor,
            started: false,
            done,
        }
    }

    /// The multi-index of the element [`Iterator::next`] last yielded.
    #[inline]
    pub fn index(&self) -> &[usize] {
        &self.cursor
    }
}

impl Iterator for RegionIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.done {
            return None;
        }
        if self.started {
            // Advance the row-major odometer.
            let mut d = self.cursor.len();
            loop {
                if d == 0 {
                    self.done = true;
                    return None;
                }
                d -= 1;
                let (start, len) = self.spans[d];
                self.cursor[d] += 1;
                if self.cursor[d] < start + len {
                    break;
                }
                self.cursor[d] = start;
            }
        }
        self.started = true;
        Some(
            self.extents
                .linearize(&self.cursor)
                .expect("RegionIter cursor in bounds"),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linearize_row_major() {
        let e = Extents::new([3, 4]);
        assert_eq!(e.linearize(&[0, 0]), Some(0));
        assert_eq!(e.linearize(&[0, 3]), Some(3));
        assert_eq!(e.linearize(&[1, 0]), Some(4));
        assert_eq!(e.linearize(&[2, 3]), Some(11));
        assert_eq!(e.linearize(&[3, 0]), None);
        assert_eq!(e.linearize(&[0]), None);
    }

    #[test]
    fn delinearize_round_trip() {
        let e = Extents::new([2, 3, 5]);
        for lin in 0..e.len() {
            assert_eq!(e.linearize(&e.delinearize(lin)), Some(lin));
        }
    }

    #[test]
    fn union_and_fits() {
        let a = Extents::new([2, 5]);
        let b = Extents::new([4, 3]);
        assert_eq!(a.union(&b), Extents::new([4, 5]));
        assert!(a.fits_within(&a.union(&b)));
        assert!(!b.fits_within(&a));
    }

    #[test]
    fn region_point_and_all() {
        let e = Extents::new([4, 4]);
        let p = Region::point(&[2, 3]);
        assert_eq!(p.len(&e).unwrap(), 1);
        let a = Region::all(2);
        assert_eq!(a.len(&e).unwrap(), 16);
    }

    #[test]
    fn region_shape_and_resolve() {
        let e = Extents::new([4, 6]);
        let r = Region(vec![DimSel::Index(1), DimSel::Range { start: 2, len: 3 }]);
        assert_eq!(r.shape(&e).unwrap(), Extents::new([1, 3]));
        assert_eq!(r.resolve(&e).unwrap(), vec![(1, 1), (2, 3)]);
        let oob = Region(vec![DimSel::Index(4), DimSel::All]);
        assert!(oob.resolve(&e).is_err());
    }

    #[test]
    fn region_iteration_row_major() {
        let e = Extents::new([3, 4]);
        let r = Region(vec![
            DimSel::Range { start: 1, len: 2 },
            DimSel::Range { start: 0, len: 2 },
        ]);
        let (rows, row) = r.rows(&e).unwrap();
        assert_eq!((rows.collect::<Vec<_>>(), row), (vec![4, 8], 2));
        let (rows, row) = Region::point(&[2, 3]).rows(&e).unwrap();
        assert_eq!((rows.collect::<Vec<_>>(), row), (vec![11], 1));
        let e3 = Extents::new([2, 2, 3]);
        let r3 = Region(vec![
            DimSel::All,
            DimSel::All,
            DimSel::Range { start: 1, len: 2 },
        ]);
        let (rows, row) = r3.rows(&e3).unwrap();
        assert_eq!((rows.collect::<Vec<_>>(), row), (vec![1, 4, 7, 10], 2));
        // Each row's multi-index is its first element's.
        let (mut rows, _) = r3.rows(&e3).unwrap();
        let mut firsts = Vec::new();
        while let Some(lin) = rows.next() {
            assert_eq!(e3.linearize(rows.index()), Some(lin));
            firsts.push(rows.index().to_vec());
        }
        assert_eq!(firsts, [[0, 0, 1], [0, 1, 1], [1, 0, 1], [1, 1, 1]]);
    }

    #[test]
    fn region_iteration_all() {
        let e = Extents::new([2, 3]);
        let (rows, row) = Region::all(2).rows(&e).unwrap();
        assert_eq!((rows.collect::<Vec<_>>(), row), (vec![0, 3], 3));
        let scalar = Extents::new([]);
        let (rows, row) = Region::all(0).rows(&scalar).unwrap();
        assert_eq!((rows.collect::<Vec<_>>(), row), (vec![0], 1));
    }

    #[test]
    fn runs_span_trailing_whole_dimensions() {
        let e = Extents::new([4, 3, 2]);
        let firsts = |r: &Region| {
            let (runs, run) = r.runs(&e).unwrap();
            (runs.collect::<Vec<_>>(), run)
        };
        // Everything: one run.
        assert_eq!(firsts(&Region::all(3)), (vec![0], 24));
        // A range over whole inner dimensions: one run of its rows.
        let r = Region(vec![DimSel::Range { start: 1, len: 2 }, DimSel::All, DimSel::All]);
        assert_eq!(firsts(&r), (vec![6], 12));
        // A `Range` spelling out the whole extent counts as whole.
        let r = Region(vec![
            DimSel::Index(2),
            DimSel::Range { start: 0, len: 3 },
            DimSel::All,
        ]);
        assert_eq!(firsts(&r), (vec![12], 6));
        // A partial middle dimension stops the run there.
        let r = Region(vec![DimSel::All, DimSel::Index(1), DimSel::All]);
        assert_eq!(firsts(&r), (vec![2, 8, 14, 20], 2));
        // A partial innermost dimension: runs are rows.
        let r = Region(vec![DimSel::All, DimSel::All, DimSel::Index(1)]);
        assert_eq!(firsts(&r).1, 1);
        assert_eq!(firsts(&r).0.len(), 12);
        // Each run's multi-index is its first element's.
        let r = Region(vec![DimSel::Range { start: 1, len: 2 }, DimSel::Index(2), DimSel::All]);
        let (mut runs, run) = r.runs(&e).unwrap();
        assert_eq!((runs.next(), runs.index(), run), (Some(10), &[1, 2, 0][..], 2));
        assert_eq!((runs.next(), runs.index()), (Some(16), &[2, 2, 0][..]));
        assert_eq!(runs.next(), None);
        // Rank 0 and empty extents.
        let (scalar, empty) = (Extents::new([]), Extents::new([2, 0]));
        let (runs, run) = Region::all(0).runs(&scalar).unwrap();
        assert_eq!((runs.collect::<Vec<_>>(), run), (vec![0], 1));
        let (mut runs, run) = Region::all(2).runs(&empty).unwrap();
        assert_eq!((runs.next(), run), (None, 0));
    }

    #[test]
    fn region_empty() {
        let e = Extents::new([0, 4]);
        let r = Region::all(2);
        assert!(r.is_empty(&e).unwrap());
        assert_eq!(r.rows(&e).unwrap().0.count(), 0);
        let empty_rows = Extents::new([2, 0]);
        let (mut rows, row) = r.rows(&empty_rows).unwrap();
        assert_eq!((rows.next(), row), (None, 0));
    }

    #[test]
    fn dimension_mismatch_detected() {
        let e = Extents::new([4]);
        let r = Region::all(2);
        assert!(matches!(
            r.shape(&e),
            Err(FieldError::DimensionMismatch { .. })
        ));
    }
}
