//! Kernel instance identification.

use p2g_field::Age;
use p2g_graph::KernelId;

/// Maximum index variables per kernel; index values are packed 16 bits each
/// into a `u64` for cheap hashing and dispatched-set membership.
pub const MAX_INDEX_VARS: usize = 4;

/// Packed index-variable values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PackedIndices(u64);

impl PackedIndices {
    /// Pack index values (each must be < 65536).
    pub fn pack(indices: &[usize]) -> Option<PackedIndices> {
        if indices.len() > MAX_INDEX_VARS {
            return None;
        }
        let mut v = 0u64;
        for (d, &ix) in indices.iter().enumerate() {
            if ix > u16::MAX as usize {
                return None;
            }
            v |= (ix as u64) << (16 * d);
        }
        Some(PackedIndices(v))
    }

    /// Unpack into `n` index values.
    pub fn unpack(self, n: usize) -> Vec<usize> {
        (0..n)
            .map(|d| ((self.0 >> (16 * d)) & 0xFFFF) as usize)
            .collect()
    }
}

/// Identifies one kernel instance: (kernel definition, age, index values).
///
/// Each key is dispatched at most once — the runtime counterpart of the
/// write-once rule.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct InstanceKey {
    pub kernel: KernelId,
    pub age: Age,
    pub indices: Vec<usize>,
}

impl std::fmt::Display for InstanceKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}@{}", self.kernel, self.age)?;
        for ix in &self.indices {
            write!(f, "[{ix}]")?;
        }
        Ok(())
    }
}

/// A unit handed to a worker: one or more instances of the same kernel and
/// age, merged by the data-granularity setting (`chunk_size`).
#[derive(Debug, Clone)]
pub struct DispatchUnit {
    pub kernel: KernelId,
    pub age: Age,
    /// Index combinations covered by this dispatch.
    pub instances: Vec<Vec<usize>>,
    /// Execution attempt: 0 for the first dispatch, incremented on each
    /// fault-policy retry. Retry attempts apply their stores idempotently
    /// (a fused consumer may have failed after the producer stores landed).
    pub attempt: u32,
    /// Carried across retries: whether an earlier attempt of this unit
    /// already stored something (feeds the final `UnitDone::stored_any`,
    /// which drives source sequencing).
    pub prior_stored: bool,
}

impl DispatchUnit {
    /// A first-attempt unit.
    pub fn new(kernel: KernelId, age: Age, instances: Vec<Vec<usize>>) -> DispatchUnit {
        DispatchUnit {
            kernel,
            age,
            instances,
            attempt: 0,
            prior_stored: false,
        }
    }

    /// Number of kernel instances in this unit.
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// True if the unit covers no instances (never produced by the
    /// analyzer; exists for API completeness).
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_round_trip() {
        let p = PackedIndices::pack(&[3, 65535, 0, 7]).unwrap();
        assert_eq!(p.unpack(4), vec![3, 65535, 0, 7]);
    }

    #[test]
    fn pack_rejects_large_values() {
        assert!(PackedIndices::pack(&[65536]).is_none());
        assert!(PackedIndices::pack(&[0; 5]).is_none());
    }

    #[test]
    fn pack_empty() {
        let p = PackedIndices::pack(&[]).unwrap();
        assert_eq!(p.unpack(0), Vec::<usize>::new());
    }

    #[test]
    fn display_format() {
        let k = InstanceKey {
            kernel: KernelId(2),
            age: Age(1),
            indices: vec![4],
        };
        assert_eq!(k.to_string(), "k2@age=1[4]");
    }
}
