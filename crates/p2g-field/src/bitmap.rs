//! Compact written-element tracking for write-once enforcement.

/// A growable bitmap with a popcount, tracking which elements of a field age
/// have been written.
///
/// The dependency analyzer asks two questions constantly: "is this region
/// fully written?" (to decide whether a kernel instance is runnable) and
/// "was this element written before?" (write-once enforcement). Both must be
/// cheap; the bitmap keeps a running count so full-age completeness is O(1).
#[derive(Debug, Clone, Default)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
    count: usize,
}

impl Bitmap {
    /// An all-zero bitmap of the given length.
    pub fn new(len: usize) -> Bitmap {
        Bitmap {
            words: vec![0; len.div_ceil(64)],
            len,
            count: 0,
        }
    }

    /// Number of bits tracked.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no bits are tracked.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of set bits.
    #[inline]
    pub fn count(&self) -> usize {
        self.count
    }

    /// True when every tracked bit is set.
    #[inline]
    pub(crate) fn all_set(&self) -> bool {
        self.count == self.len
    }

    /// Grow to `len` bits (new bits start unset). Shrinking is not
    /// supported: extents only ever grow.
    pub fn grow(&mut self, len: usize) {
        assert!(len >= self.len, "bitmaps only grow (extents are monotonic)");
        self.words.resize(len.div_ceil(64), 0);
        self.len = len;
    }

    /// Get bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Set bit `i`, returning `false` if it was already set (the write-once
    /// violation signal).
    #[inline]
    pub fn set(&mut self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let w = &mut self.words[i / 64];
        let mask = 1u64 << (i % 64);
        if *w & mask != 0 {
            return false;
        }
        *w |= mask;
        self.count += 1;
        true
    }

    /// Set the `len` bits from `start` if none of them is set yet; when one
    /// is, set nothing and return `false`. The write-once check for a
    /// contiguous run, a word at a time.
    pub(crate) fn set_run(&mut self, start: usize, len: usize) -> bool {
        debug_assert!(start + len <= self.len);
        if Self::run_masks(start, len).any(|(w, m)| self.words[w] & m != 0) {
            return false;
        }
        for (w, m) in Self::run_masks(start, len) {
            self.words[w] |= m;
        }
        self.count += len;
        true
    }

    /// Set every one of the `len` bits from `start` and return how many
    /// were not set before. `on_new` receives the indices of the bits this
    /// call set, a word at a time. Unlike `set_run`, a run overlapping set
    /// bits is not refused: the dependency analyzer accounts a stored row
    /// this way, and a duplicate delivery or replay overlaps earlier
    /// accounting.
    pub fn fill_run(&mut self, start: usize, len: usize, mut on_new: impl FnMut(BitIter)) -> usize {
        debug_assert!(start + len <= self.len);
        let mut fresh = 0usize;
        for (w, m) in Self::run_masks(start, len) {
            let new = m & !self.words[w];
            if new != 0 {
                self.words[w] |= new;
                fresh += new.count_ones() as usize;
                on_new(BitIter {
                    word: new,
                    base: w * 64,
                });
            }
        }
        self.count += fresh;
        fresh
    }

    /// Number of set bits among the `len` bits from `start`.
    pub fn count_run(&self, start: usize, len: usize) -> usize {
        debug_assert!(start + len <= self.len);
        Self::run_masks(start, len)
            .map(|(w, m)| (self.words[w] & m).count_ones() as usize)
            .sum()
    }

    /// True when all `len` bits from `start` are set.
    pub(crate) fn all_set_run(&self, start: usize, len: usize) -> bool {
        debug_assert!(start + len <= self.len);
        Self::run_masks(start, len).all(|(w, m)| self.words[w] & m == m)
    }

    /// The words a run of `len` bits from `start` touches, each with the
    /// mask of the run's bits in it.
    fn run_masks(start: usize, len: usize) -> impl Iterator<Item = (usize, u64)> {
        let end = start + len;
        let words = if len == 0 {
            0..0
        } else {
            start / 64..end.div_ceil(64)
        };
        words.map(move |w| {
            let lo = start.max(w * 64) - w * 64;
            let hi = end.min(w * 64 + 64) - w * 64;
            (w, (u64::MAX >> (64 - (hi - lo))) << lo)
        })
    }

    /// Iterate the indices of set bits.
    pub(crate) fn iter_set(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(move |(wi, &w)| {
            let base = wi * 64;
            let len = self.len;
            BitIter { word: w, base }.take_while(move |&i| i < len)
        })
    }
}

/// The indices of the set bits of one bitmap word, lowest first.
#[derive(Debug, Clone)]
pub struct BitIter {
    word: u64,
    base: usize,
}

impl Iterator for BitIter {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.word == 0 {
            return None;
        }
        let tz = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(self.base + tz)
    }
}

/// A bitmap shaped by [`Extents`]: one bit per element of a dense
/// N-dimensional rectangle, addressable by multi-index.
///
/// The dependency analyzer uses this for its dispatched-instance sets:
/// kernel instance spaces are dense rectangles (the cross product of the
/// index-variable ranges), so a bitset replaces the previous
/// hash-set-of-packed-indices representation — no hashing, no per-instance
/// allocation, O(1) membership, and O(words) counting.
///
/// Like field extents, the shape only ever grows; [`ShapedBitmap::grow`]
/// remaps set bits because row-major linearization shifts when an inner
/// dimension grows. The empty shape `Extents::new([])` addresses exactly
/// one element (the instance of a kernel with no index variables).
#[derive(Debug, Clone)]
pub struct ShapedBitmap {
    extents: crate::Extents,
    bits: Bitmap,
}

impl ShapedBitmap {
    /// An all-zero bitmap over the given shape.
    pub fn new(extents: crate::Extents) -> ShapedBitmap {
        let len = extents.len();
        ShapedBitmap {
            extents,
            bits: Bitmap::new(len),
        }
    }

    /// The current shape.
    #[inline]
    pub fn extents(&self) -> &crate::Extents {
        &self.extents
    }

    /// Number of addressable elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// True when no elements are addressable (some dimension is zero).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bits.len() == 0
    }

    /// Number of set bits.
    #[inline]
    pub fn count(&self) -> usize {
        self.bits.count()
    }

    /// Get the bit for a multi-index; out-of-shape indices read as unset.
    #[inline]
    pub fn get(&self, index: &[usize]) -> bool {
        self.extents
            .linearize(index)
            .is_some_and(|lin| self.bits.get(lin))
    }

    /// Set the bit for a multi-index, returning `false` when it was already
    /// set. Panics if the index is outside the shape (grow first).
    #[inline]
    pub fn set(&mut self, index: &[usize]) -> bool {
        let lin = self
            .extents
            .linearize(index)
            .expect("index within ShapedBitmap extents");
        self.bits.set(lin)
    }

    /// Get a bit by row-major linear index under the current shape.
    #[inline]
    pub fn get_linear(&self, lin: usize) -> bool {
        self.bits.get(lin)
    }

    /// Grow to `new_extents` (component-wise union with the current shape),
    /// remapping set bits into the new row-major layout.
    pub fn grow(&mut self, new_extents: &crate::Extents) {
        let target = self.extents.union(new_extents);
        if target == self.extents {
            return;
        }
        self.bits = remap_for_resize(&self.bits, &self.extents, &target);
        self.extents = target;
    }
}

/// Remap a bitmap when its underlying extents grow: old linear indices are
/// recomputed against the new shape. The field calls this after an implicit
/// resize, because row-major linearization changes when inner dimensions
/// grow.
pub fn remap_for_resize(
    old: &Bitmap,
    old_extents: &crate::Extents,
    new_extents: &crate::Extents,
) -> Bitmap {
    let mut out = Bitmap::new(new_extents.len());
    for lin in old.iter_set() {
        let idx = old_extents.delinearize(lin);
        let new_lin = new_extents
            .linearize(&idx)
            .expect("old index fits in grown extents");
        out.set(new_lin);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Extents;

    #[test]
    fn set_and_get() {
        let mut b = Bitmap::new(130);
        assert!(!b.get(0));
        assert!(b.set(0));
        assert!(b.set(64));
        assert!(b.set(129));
        assert!(b.get(0) && b.get(64) && b.get(129));
        assert!(!b.get(1));
        assert_eq!(b.count(), 3);
    }

    #[test]
    fn double_set_reports_violation() {
        let mut b = Bitmap::new(8);
        assert!(b.set(3));
        assert!(!b.set(3));
        assert_eq!(b.count(), 1);
    }

    #[test]
    fn set_run_is_all_or_nothing() {
        let mut b = Bitmap::new(200);
        // Spans a word boundary, then a run ending exactly on one.
        assert!(b.set_run(60, 10));
        assert!(b.set_run(100, 28));
        assert_eq!(b.count(), 38);
        assert!((60..70).all(|i| b.get(i)) && !b.get(59) && !b.get(70));
        assert!((100..128).all(|i| b.get(i)) && !b.get(128));
        // Overlapping one set bit: refused, nothing changes.
        assert!(!b.set_run(50, 11));
        assert_eq!(b.count(), 38);
        assert!(!b.get(50));
        assert!(b.set_run(0, 60) && b.set_run(128, 72) && b.set_run(70, 0));
        assert_eq!(b.count(), 38 + 60 + 72);
        assert!(!b.set_run(199, 1));
        assert!(b.all_set_run(0, 70) && b.all_set_run(100, 100) && b.all_set_run(5, 0));
        assert!(!b.all_set_run(60, 41) && !b.all_set_run(69, 2));
    }

    #[test]
    fn fill_run_counts_only_new_bits() {
        let mut b = Bitmap::new(200);
        let mut news: Vec<Vec<usize>> = Vec::new();
        // Across a word boundary.
        assert_eq!(b.fill_run(60, 10, |bits| news.push(bits.collect())), 10);
        assert_eq!(news, [(60..64).collect::<Vec<_>>(), (64..70).collect()]);
        assert_eq!(b.count_run(60, 10), 10);
        // Partly set: only the bits outside [60, 70) are new.
        news.clear();
        assert_eq!(b.fill_run(58, 14, |bits| news.push(bits.collect())), 4);
        assert_eq!(news, [[58, 59], [70, 71]]);
        assert!((58..72).all(|i| b.get(i)) && !b.get(57) && !b.get(72));
        // Fully set: nothing new, no word reported.
        news.clear();
        assert_eq!(b.fill_run(60, 10, |bits| news.push(bits.collect())), 0);
        assert!(news.is_empty());
        // Zero-length runs touch nothing, also at the end.
        assert_eq!(b.fill_run(100, 0, |_| panic!("no word")), 0);
        assert_eq!(b.fill_run(200, 0, |_| panic!("no word")), 0);
        assert_eq!((b.count_run(100, 0), b.count_run(200, 0)), (0, 0));
        // Three words, ending on a boundary; the count stays exact.
        assert_eq!(b.fill_run(64, 128, |_| ()), 128 - 8);
        assert_eq!(b.count(), 14 + 120);
        assert_eq!(b.count_run(0, 200), b.count());
        assert_eq!(b.count_run(50, 30), 22);
    }

    #[test]
    fn all_set_tracking() {
        let mut b = Bitmap::new(3);
        assert!(!b.all_set());
        b.set(0);
        b.set(1);
        b.set(2);
        assert!(b.all_set());
    }

    #[test]
    fn empty_bitmap_is_complete() {
        let b = Bitmap::new(0);
        assert!(b.all_set());
        assert!(b.is_empty());
    }

    #[test]
    fn grow_preserves_bits() {
        let mut b = Bitmap::new(10);
        b.set(9);
        b.grow(100);
        assert!(b.get(9));
        assert!(!b.get(10));
        assert_eq!(b.len(), 100);
        assert_eq!(b.count(), 1);
    }

    #[test]
    fn iter_set_yields_sorted_indices() {
        let mut b = Bitmap::new(200);
        for i in [0, 63, 64, 65, 127, 199] {
            b.set(i);
        }
        let got: Vec<usize> = b.iter_set().collect();
        assert_eq!(got, vec![0, 63, 64, 65, 127, 199]);
    }

    #[test]
    fn all_set_in_region() {
        let mut b = Bitmap::new(16);
        for i in 4..8 {
            b.set(i);
        }
        assert!(b.all_set_run(4, 4));
        assert!(!b.all_set_run(3, 5));
    }

    #[test]
    fn shaped_bitmap_set_get_grow() {
        let mut b = ShapedBitmap::new(Extents::new([2, 2]));
        assert!(b.set(&[1, 1]));
        assert!(!b.set(&[1, 1]));
        assert!(b.get(&[1, 1]) && !b.get(&[0, 1]));
        // Out-of-shape reads are unset, not panics.
        assert!(!b.get(&[5, 0]));
        // Growing the inner dimension shifts linearization but keeps bits.
        b.grow(&Extents::new([2, 4]));
        assert!(b.get(&[1, 1]));
        assert_eq!(b.count(), 1);
        assert_eq!(b.len(), 8);
        assert!(b.set(&[1, 3]));
        assert_eq!(b.count(), 2);
    }

    #[test]
    fn shaped_bitmap_scalar_shape() {
        // The empty shape addresses exactly one element — the instance of
        // a kernel with no index variables.
        let mut b = ShapedBitmap::new(Extents::new([]));
        assert_eq!(b.len(), 1);
        assert!(b.set(&[]));
        assert!(!b.set(&[]));
        assert!(b.get(&[]));
    }

    #[test]
    fn shaped_bitmap_grow_is_union() {
        let mut b = ShapedBitmap::new(Extents::new([4, 1]));
        b.set(&[3, 0]);
        // Growth never shrinks a dimension: union with [2, 3] is [4, 3].
        b.grow(&Extents::new([2, 3]));
        assert_eq!(b.extents(), &Extents::new([4, 3]));
        assert!(b.get(&[3, 0]));
    }

    #[test]
    fn remap_after_inner_dim_growth() {
        // 2x2 grown to 2x3: element (1,1) moves from lin 3 to lin 4.
        let old_e = Extents::new([2, 2]);
        let new_e = Extents::new([2, 3]);
        let mut b = Bitmap::new(old_e.len());
        b.set(old_e.linearize(&[1, 1]).unwrap());
        b.set(old_e.linearize(&[0, 0]).unwrap());
        let nb = remap_for_resize(&b, &old_e, &new_e);
        assert!(nb.get(new_e.linearize(&[1, 1]).unwrap()));
        assert!(nb.get(new_e.linearize(&[0, 0]).unwrap()));
        assert_eq!(nb.count(), 2);
    }
}
