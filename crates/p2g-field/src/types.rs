//! Element type system shared by the kernel language, fields and runtime.

use crate::error::FieldError;

/// The scalar element types a field may hold.
///
/// Multimedia data is dominated by small integer samples (pixels,
/// coefficients) and floats (distances, means), so the type set mirrors what
/// the paper's blitz++-backed prototype supported.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScalarType {
    U8,
    I16,
    I32,
    I64,
    F32,
    F64,
}

impl ScalarType {
    /// Size of one element in bytes.
    pub fn size_bytes(self) -> usize {
        match self {
            ScalarType::U8 => 1,
            ScalarType::I16 => 2,
            ScalarType::I32 | ScalarType::F32 => 4,
            ScalarType::I64 | ScalarType::F64 => 8,
        }
    }

    /// The kernel-language keyword for this type (`int32`, `float64`, ...).
    pub fn keyword(self) -> &'static str {
        match self {
            ScalarType::U8 => "uint8",
            ScalarType::I16 => "int16",
            ScalarType::I32 => "int32",
            ScalarType::I64 => "int64",
            ScalarType::F32 => "float32",
            ScalarType::F64 => "float64",
        }
    }

    /// Whether this is a floating-point type.
    pub fn is_float(self) -> bool {
        matches!(self, ScalarType::F32 | ScalarType::F64)
    }
}

impl std::fmt::Display for ScalarType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.keyword())
    }
}

/// A single dynamically-typed element value.
///
/// Used at API boundaries (single-element fetch/store, the kernel-language
/// interpreter). Bulk data moves through [`crate::Buffer`] instead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    U8(u8),
    I16(i16),
    I32(i32),
    I64(i64),
    F32(f32),
    F64(f64),
}

impl Value {
    /// The scalar type of this value.
    pub fn scalar_type(self) -> ScalarType {
        match self {
            Value::U8(_) => ScalarType::U8,
            Value::I16(_) => ScalarType::I16,
            Value::I32(_) => ScalarType::I32,
            Value::I64(_) => ScalarType::I64,
            Value::F32(_) => ScalarType::F32,
            Value::F64(_) => ScalarType::F64,
        }
    }

    /// A zero value of the given type.
    pub fn zero(ty: ScalarType) -> Value {
        match ty {
            ScalarType::U8 => Value::U8(0),
            ScalarType::I16 => Value::I16(0),
            ScalarType::I32 => Value::I32(0),
            ScalarType::I64 => Value::I64(0),
            ScalarType::F32 => Value::F32(0.0),
            ScalarType::F64 => Value::F64(0.0),
        }
    }

    /// Widen to i64, truncating floats toward zero.
    pub fn as_i64(self) -> i64 {
        match self {
            Value::U8(v) => v as i64,
            Value::I16(v) => v as i64,
            Value::I32(v) => v as i64,
            Value::I64(v) => v,
            Value::F32(v) => v as i64,
            Value::F64(v) => v as i64,
        }
    }

    /// Widen to f64.
    pub fn as_f64(self) -> f64 {
        match self {
            Value::U8(v) => v as f64,
            Value::I16(v) => v as f64,
            Value::I32(v) => v as f64,
            Value::I64(v) => v as f64,
            Value::F32(v) => v as f64,
            Value::F64(v) => v,
        }
    }

    /// Convert (with numeric casting) to the target scalar type.
    pub fn cast(self, ty: ScalarType) -> Value {
        if self.scalar_type() == ty {
            return self;
        }
        match ty {
            ScalarType::U8 => Value::U8(self.as_i64() as u8),
            ScalarType::I16 => Value::I16(self.as_i64() as i16),
            ScalarType::I32 => Value::I32(self.as_i64() as i32),
            ScalarType::I64 => Value::I64(self.as_i64()),
            ScalarType::F32 => Value::F32(self.as_f64() as f32),
            ScalarType::F64 => Value::F64(self.as_f64()),
        }
    }

    /// Strictly-typed conversion: error if the types differ.
    pub(crate) fn expect_type(self, ty: ScalarType) -> Result<Value, FieldError> {
        if self.scalar_type() == ty {
            Ok(self)
        } else {
            Err(FieldError::TypeMismatch {
                expected: ty,
                found: self.scalar_type(),
            })
        }
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::U8(v) => write!(f, "{v}"),
            Value::I16(v) => write!(f, "{v}"),
            Value::I32(v) => write!(f, "{v}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::F32(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
        }
    }
}

macro_rules! impl_from {
    ($($t:ty => $variant:ident),*) => {
        $(impl From<$t> for Value {
            fn from(v: $t) -> Value { Value::$variant(v) }
        })*
    };
}
impl_from!(u8 => U8, i16 => I16, i32 => I32, i64 => I64, f32 => F32, f64 => F64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_type_sizes() {
        assert_eq!(ScalarType::U8.size_bytes(), 1);
        assert_eq!(ScalarType::I16.size_bytes(), 2);
        assert_eq!(ScalarType::I32.size_bytes(), 4);
        assert_eq!(ScalarType::F32.size_bytes(), 4);
        assert_eq!(ScalarType::I64.size_bytes(), 8);
        assert_eq!(ScalarType::F64.size_bytes(), 8);
    }

    #[test]
    fn value_casts() {
        assert_eq!(Value::I32(300).cast(ScalarType::U8), Value::U8(44));
        assert_eq!(Value::F64(2.9).cast(ScalarType::I32), Value::I32(2));
        assert_eq!(Value::I32(5).cast(ScalarType::F64), Value::F64(5.0));
        assert_eq!(Value::U8(7).cast(ScalarType::I64), Value::I64(7));
    }

    #[test]
    fn value_expect_type() {
        assert!(Value::I32(1).expect_type(ScalarType::I32).is_ok());
        assert!(matches!(
            Value::I32(1).expect_type(ScalarType::F32),
            Err(FieldError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn value_from_impls() {
        assert_eq!(Value::from(1u8), Value::U8(1));
        assert_eq!(Value::from(1.5f32), Value::F32(1.5));
    }

    #[test]
    fn value_zero() {
        assert_eq!(Value::zero(ScalarType::I32), Value::I32(0));
        assert_eq!(Value::zero(ScalarType::F64), Value::F64(0.0));
    }
}
