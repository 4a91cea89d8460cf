//! Typed element buffers — the payload of fetch and store operations.

use crate::error::FieldError;
use crate::extent::Extents;
use crate::types::{ScalarType, Value};

/// A shaped, typed buffer of elements.
///
/// Kernel instances fetch regions of fields as `Buffer`s (owned copies, so
/// worker threads never hold field locks while running kernel code) and
/// store `Buffer`s back into regions. The enum-of-`Vec` representation keeps
/// the hot paths (`as_u8`, `as_i16`, ...) monomorphic for workload code
/// while the runtime stays dynamically typed.
#[derive(Debug, Clone, PartialEq)]
pub struct Buffer {
    shape: Extents,
    data: BufferData,
}

/// The typed storage behind a [`Buffer`].
#[derive(Debug, Clone, PartialEq)]
pub enum BufferData {
    U8(Vec<u8>),
    I16(Vec<i16>),
    I32(Vec<i32>),
    I64(Vec<i64>),
    F32(Vec<f32>),
    F64(Vec<f64>),
}

impl BufferData {
    fn len(&self) -> usize {
        match self {
            BufferData::U8(v) => v.len(),
            BufferData::I16(v) => v.len(),
            BufferData::I32(v) => v.len(),
            BufferData::I64(v) => v.len(),
            BufferData::F32(v) => v.len(),
            BufferData::F64(v) => v.len(),
        }
    }

    fn scalar_type(&self) -> ScalarType {
        match self {
            BufferData::U8(_) => ScalarType::U8,
            BufferData::I16(_) => ScalarType::I16,
            BufferData::I32(_) => ScalarType::I32,
            BufferData::I64(_) => ScalarType::I64,
            BufferData::F32(_) => ScalarType::F32,
            BufferData::F64(_) => ScalarType::F64,
        }
    }

    fn zeroed(ty: ScalarType, len: usize) -> BufferData {
        match ty {
            ScalarType::U8 => BufferData::U8(vec![0; len]),
            ScalarType::I16 => BufferData::I16(vec![0; len]),
            ScalarType::I32 => BufferData::I32(vec![0; len]),
            ScalarType::I64 => BufferData::I64(vec![0; len]),
            ScalarType::F32 => BufferData::F32(vec![0.0; len]),
            ScalarType::F64 => BufferData::F64(vec![0.0; len]),
        }
    }

    /// Empty storage of `ty` with room for `cap` elements, for
    /// [`BufferData::extend_from`] to fill without a zeroing pass.
    pub(crate) fn with_capacity(ty: ScalarType, cap: usize) -> BufferData {
        match ty {
            ScalarType::U8 => BufferData::U8(Vec::with_capacity(cap)),
            ScalarType::I16 => BufferData::I16(Vec::with_capacity(cap)),
            ScalarType::I32 => BufferData::I32(Vec::with_capacity(cap)),
            ScalarType::I64 => BufferData::I64(Vec::with_capacity(cap)),
            ScalarType::F32 => BufferData::F32(Vec::with_capacity(cap)),
            ScalarType::F64 => BufferData::F64(Vec::with_capacity(cap)),
        }
    }

    /// Append `len` elements of `src` starting at `from`, as one slice
    /// copy. The element types must match.
    pub(crate) fn extend_from(
        &mut self,
        src: &BufferData,
        from: usize,
        len: usize,
    ) -> Result<(), FieldError> {
        let from = from..from + len;
        match (self, src) {
            (BufferData::U8(d), BufferData::U8(s)) => d.extend_from_slice(&s[from]),
            (BufferData::I16(d), BufferData::I16(s)) => d.extend_from_slice(&s[from]),
            (BufferData::I32(d), BufferData::I32(s)) => d.extend_from_slice(&s[from]),
            (BufferData::I64(d), BufferData::I64(s)) => d.extend_from_slice(&s[from]),
            (BufferData::F32(d), BufferData::F32(s)) => d.extend_from_slice(&s[from]),
            (BufferData::F64(d), BufferData::F64(s)) => d.extend_from_slice(&s[from]),
            (d, s) => {
                return Err(FieldError::TypeMismatch {
                    expected: d.scalar_type(),
                    found: s.scalar_type(),
                })
            }
        }
        Ok(())
    }
}

impl Buffer {
    /// A zero-filled buffer with the given element type and shape.
    pub fn zeroed(ty: ScalarType, shape: Extents) -> Buffer {
        let len = shape.len();
        Buffer {
            shape,
            data: BufferData::zeroed(ty, len),
        }
    }

    /// Build from raw typed data and a shape; the lengths must agree.
    pub fn from_data(data: BufferData, shape: Extents) -> Result<Buffer, FieldError> {
        if data.len() != shape.len() {
            return Err(FieldError::LengthMismatch {
                expected: shape.len(),
                found: data.len(),
            });
        }
        Ok(Buffer { shape, data })
    }

    /// 1-D buffer from a typed vector.
    pub fn from_vec<T>(v: Vec<T>) -> Buffer
    where
        BufferData: From<Vec<T>>,
    {
        let len = v.len();
        Buffer {
            shape: Extents::new([len]),
            data: BufferData::from(v),
        }
    }

    /// A 1-element buffer holding `value`.
    pub fn scalar(value: Value) -> Buffer {
        let mut b = Buffer::zeroed(value.scalar_type(), Extents::new([1]));
        b.set_value(0, value).expect("scalar buffer type matches");
        b
    }

    /// The element type.
    #[inline]
    pub fn scalar_type(&self) -> ScalarType {
        self.data.scalar_type()
    }

    /// The shape (per-dimension sizes).
    #[inline]
    pub fn shape(&self) -> &Extents {
        &self.shape
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the buffer holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reinterpret the shape (same element count, e.g. flatten 2-D → 1-D).
    pub fn reshape(mut self, shape: Extents) -> Result<Buffer, FieldError> {
        if shape.len() != self.len() {
            return Err(FieldError::LengthMismatch {
                expected: shape.len(),
                found: self.len(),
            });
        }
        self.shape = shape;
        Ok(self)
    }

    /// Read element `lin` (row-major linear index) as a [`Value`].
    #[inline]
    pub fn value(&self, lin: usize) -> Value {
        match &self.data {
            BufferData::U8(v) => Value::U8(v[lin]),
            BufferData::I16(v) => Value::I16(v[lin]),
            BufferData::I32(v) => Value::I32(v[lin]),
            BufferData::I64(v) => Value::I64(v[lin]),
            BufferData::F32(v) => Value::F32(v[lin]),
            BufferData::F64(v) => Value::F64(v[lin]),
        }
    }

    /// Write element `lin`; the value type must match exactly.
    #[inline]
    pub fn set_value(&mut self, lin: usize, value: Value) -> Result<(), FieldError> {
        let value = value.expect_type(self.scalar_type())?;
        match (&mut self.data, value) {
            (BufferData::U8(v), Value::U8(x)) => v[lin] = x,
            (BufferData::I16(v), Value::I16(x)) => v[lin] = x,
            (BufferData::I32(v), Value::I32(x)) => v[lin] = x,
            (BufferData::I64(v), Value::I64(x)) => v[lin] = x,
            (BufferData::F32(v), Value::F32(x)) => v[lin] = x,
            (BufferData::F64(v), Value::F64(x)) => v[lin] = x,
            _ => unreachable!("expect_type verified the variant"),
        }
        Ok(())
    }

    /// Copy `len` elements of `src` starting at `from` into this buffer at
    /// `at`, as one slice copy. The element types must match.
    pub(crate) fn copy_from(
        &mut self,
        at: usize,
        src: &Buffer,
        from: usize,
        len: usize,
    ) -> Result<(), FieldError> {
        let (to, from) = (at..at + len, from..from + len);
        match (&mut self.data, &src.data) {
            (BufferData::U8(d), BufferData::U8(s)) => d[to].copy_from_slice(&s[from]),
            (BufferData::I16(d), BufferData::I16(s)) => d[to].copy_from_slice(&s[from]),
            (BufferData::I32(d), BufferData::I32(s)) => d[to].copy_from_slice(&s[from]),
            (BufferData::I64(d), BufferData::I64(s)) => d[to].copy_from_slice(&s[from]),
            (BufferData::F32(d), BufferData::F32(s)) => d[to].copy_from_slice(&s[from]),
            (BufferData::F64(d), BufferData::F64(s)) => d[to].copy_from_slice(&s[from]),
            (d, s) => {
                return Err(FieldError::TypeMismatch {
                    expected: d.scalar_type(),
                    found: s.scalar_type(),
                })
            }
        }
        Ok(())
    }

    /// Concatenate buffers of one scalar type into a single 1-D buffer
    /// (shapes are flattened; element order is part order, row-major
    /// within each part). The runtime's merged range stores use this to
    /// fuse per-instance payloads into one contiguous payload.
    pub fn concat<'a, I>(parts: I) -> Result<Buffer, FieldError>
    where
        I: IntoIterator<Item = &'a Buffer>,
    {
        let mut out: Option<BufferData> = None;
        for part in parts {
            match &mut out {
                None => out = Some(part.data.clone()),
                Some(acc) => {
                    if acc.scalar_type() != part.scalar_type() {
                        return Err(FieldError::TypeMismatch {
                            expected: acc.scalar_type(),
                            found: part.scalar_type(),
                        });
                    }
                    match (acc, &part.data) {
                        (BufferData::U8(a), BufferData::U8(b)) => a.extend_from_slice(b),
                        (BufferData::I16(a), BufferData::I16(b)) => a.extend_from_slice(b),
                        (BufferData::I32(a), BufferData::I32(b)) => a.extend_from_slice(b),
                        (BufferData::I64(a), BufferData::I64(b)) => a.extend_from_slice(b),
                        (BufferData::F32(a), BufferData::F32(b)) => a.extend_from_slice(b),
                        (BufferData::F64(a), BufferData::F64(b)) => a.extend_from_slice(b),
                        _ => unreachable!("scalar types checked above"),
                    }
                }
            }
        }
        let data = out.unwrap_or(BufferData::U8(Vec::new()));
        let len = data.len();
        Ok(Buffer {
            shape: Extents::new([len]),
            data,
        })
    }

    /// Access the raw data.
    #[inline]
    pub fn data(&self) -> &BufferData {
        &self.data
    }
}

macro_rules! typed_accessors {
    ($($t:ty, $variant:ident, $as_fn:ident, $as_mut_fn:ident);* $(;)?) => {
        $(
        impl From<Vec<$t>> for BufferData {
            fn from(v: Vec<$t>) -> BufferData { BufferData::$variant(v) }
        }
        impl Buffer {
            /// Borrow the elements as a typed slice; `None` on type mismatch.
            #[inline]
            pub fn $as_fn(&self) -> Option<&[$t]> {
                match &self.data {
                    BufferData::$variant(v) => Some(v),
                    _ => None,
                }
            }
            /// Mutably borrow the elements; `None` on type mismatch.
            #[inline]
            pub fn $as_mut_fn(&mut self) -> Option<&mut [$t]> {
                match &mut self.data {
                    BufferData::$variant(v) => Some(v),
                    _ => None,
                }
            }
        }
        )*
    };
}

typed_accessors! {
    u8,  U8,  as_u8,  as_u8_mut;
    i16, I16, as_i16, as_i16_mut;
    i32, I32, as_i32, as_i32_mut;
    i64, I64, as_i64, as_i64_mut;
    f32, F32, as_f32, as_f32_mut;
    f64, F64, as_f64, as_f64_mut;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_has_right_shape_and_type() {
        let b = Buffer::zeroed(ScalarType::I32, Extents::new([2, 3]));
        assert_eq!(b.len(), 6);
        assert_eq!(b.scalar_type(), ScalarType::I32);
        assert_eq!(b.value(5), Value::I32(0));
    }

    #[test]
    fn from_vec_infers_1d_shape() {
        let b = Buffer::from_vec(vec![1i32, 2, 3]);
        assert_eq!(b.shape(), &Extents::new([3]));
        assert_eq!(b.as_i32().unwrap(), &[1, 2, 3]);
    }

    #[test]
    fn scalar_buffer() {
        let b = Buffer::scalar(Value::F64(2.5));
        assert_eq!(b.len(), 1);
        assert_eq!(b.value(0), Value::F64(2.5));
    }

    #[test]
    fn set_value_type_checked() {
        let mut b = Buffer::zeroed(ScalarType::I16, Extents::new([4]));
        b.set_value(2, Value::I16(7)).unwrap();
        assert_eq!(b.value(2), Value::I16(7));
        assert!(b.set_value(0, Value::I32(1)).is_err());
    }

    #[test]
    fn reshape_checks_len() {
        let b = Buffer::from_vec(vec![0u8; 6]);
        let b = b.reshape(Extents::new([2, 3])).unwrap();
        assert_eq!(b.shape(), &Extents::new([2, 3]));
        assert!(b.reshape(Extents::new([4])).is_err());
    }

    #[test]
    fn typed_accessors_mismatch() {
        let b = Buffer::from_vec(vec![1i32]);
        assert!(b.as_f32().is_none());
        assert!(b.as_i32().is_some());
    }

    #[test]
    fn from_data_length_checked() {
        let r = Buffer::from_data(BufferData::U8(vec![0; 3]), Extents::new([2, 2]));
        assert!(matches!(r, Err(FieldError::LengthMismatch { .. })));
    }

    #[test]
    fn concat_flattens_in_part_order() {
        let a = Buffer::from_vec(vec![1i16, 2]);
        let b = Buffer::from_vec(vec![3i16]);
        let c = Buffer::concat([&a, &b]).unwrap();
        assert_eq!(c.shape(), &Extents::new([3]));
        assert_eq!(c.as_i16().unwrap(), &[1, 2, 3]);
        assert!(Buffer::concat([&a, &Buffer::from_vec(vec![1u8])]).is_err());
        assert_eq!(Buffer::concat([]).unwrap().len(), 0);
    }

    #[test]
    fn copy_from_moves_a_run() {
        let mut b = Buffer::zeroed(ScalarType::I16, Extents::new([5]));
        b.copy_from(1, &Buffer::from_vec(vec![7i16, 8, 9]), 1, 2)
            .unwrap();
        assert_eq!(b.as_i16().unwrap(), &[0, 8, 9, 0, 0]);
        assert!(matches!(
            b.copy_from(0, &Buffer::from_vec(vec![1u8]), 0, 1),
            Err(FieldError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn mutate_through_typed_slice() {
        let mut b = Buffer::zeroed(ScalarType::F32, Extents::new([3]));
        b.as_f32_mut().unwrap()[1] = 4.5;
        assert_eq!(b.value(1), Value::F32(4.5));
    }
}
