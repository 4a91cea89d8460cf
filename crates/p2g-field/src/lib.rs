//! Multi-dimensional, write-once, aged fields — the central data store of P2G.
//!
//! Fields in P2G look like global multi-dimensional arrays, but every element
//! may be written **exactly once per age**. Aging adds a virtual iteration
//! dimension to a field so cyclic algorithms (video pipelines, k-means
//! refinement loops) can keep write-once semantics: storing to the "same"
//! position again is legal only with a strictly higher age. This determinism
//! is what lets the P2G scheduler dispatch kernel instances in any order and
//! still produce identical output.
//!
//! This crate provides:
//!
//! * [`ScalarType`] / [`Value`] — the element type system shared by the
//!   kernel language and the runtime.
//! * [`Buffer`] — a typed, dynamically-shaped element buffer (the payload of
//!   fetch/store operations).
//! * [`Extents`] and [`Region`] — N-dimensional shape and slice descriptions
//!   with row-major linearization.
//! * [`Field`] — the aged, write-once store with implicit resizing,
//!   completeness tracking (for dependency analysis) and age garbage
//!   collection.
//!
//! The structures here are deliberately single-threaded; the runtime crate
//! wraps fields in locks and serializes mutation through its event bus.

pub mod bitmap;
pub mod buffer;
pub mod error;
pub mod extent;
pub mod field;
pub(crate) mod types;

pub use bitmap::{Bitmap, ShapedBitmap};
pub use buffer::Buffer;
pub use error::FieldError;
pub use extent::{DimSel, Extents, Region};
pub use field::{AgeData, Field, FieldDef};
pub use types::{ScalarType, Value};

/// Identifies a field within a program. Assigned densely by the compiler /
/// program builder so it can index vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FieldId(pub u32);

impl FieldId {
    /// The id as a usize, for indexing per-field tables.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for FieldId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// An iteration age. Age 0 is the first iteration; each trip around a cycle
/// in the kernel graph increments the age of the fields written.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Age(pub u64);

impl Age {
    /// The next age (one more iteration around the cycle).
    #[inline]
    pub fn next(self) -> Age {
        Age(self.0 + 1)
    }

    /// Offset this age by a signed delta, saturating at zero.
    #[inline]
    pub fn offset(self, delta: i64) -> Age {
        Age(self.0.saturating_add_signed(delta))
    }
}

impl std::fmt::Display for Age {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "age={}", self.0)
    }
}
