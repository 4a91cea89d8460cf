//! Executable programs: a validated [`ProgramSpec`] plus kernel bodies.
//!
//! Kernel bodies are plain Rust closures — the substitution for the paper's
//! embedded C/C++ native blocks (the kernel-language crate additionally
//! provides an interpreter that wraps interpreted native blocks in this same
//! closure form). A body receives a [`KernelCtx`] with its prefetched input
//! buffers and stages stores; it never touches fields directly, which is
//! what preserves the write-once discipline.

use std::sync::Arc;
use std::time::{Duration, Instant};

use p2g_field::{Age, Buffer, Region, Value};
use p2g_graph::spec::{AgeExpr, IndexSel, KernelSpec};
use p2g_graph::{KernelId, ProgramSpec};

use crate::error::RuntimeError;
use crate::options::{FaultPolicy, KernelOptions};
use crate::timer::TimerTable;

/// What a kernel body returns: `Err` aborts the run with a kernel failure.
pub type BodyResult = Result<(), String>;

/// A kernel body closure.
pub(crate) type KernelBody = Box<dyn Fn(&mut KernelCtx) -> BodyResult + Send + Sync>;

/// A store staged by a kernel body, applied by the worker once every body
/// of the dispatch unit has run.
#[derive(Debug)]
pub(crate) struct StagedStore {
    /// The staging instance's position in its dispatch unit.
    pub(crate) slot: usize,
    /// The staging kernel: the unit's own, or its fused consumer.
    pub(crate) kernel: KernelId,
    /// Which of the kernel's store declarations this fulfils.
    pub(crate) store_idx: usize,
    /// Explicit target region (absolute field coordinates) for
    /// data-dependent stores; `None` resolves the declaration's index
    /// pattern against the instance's index variables.
    pub(crate) region: Option<Region>,
    /// Explicit age override for data-dependent ages (rare); `None`
    /// resolves the declaration's age expression.
    pub(crate) age: Option<Age>,
    pub(crate) buffer: Buffer,
}

/// Where one fetch declaration's buffers sit in a dispatch unit's inputs.
/// Fixed per kernel at launch.
#[derive(Clone, Copy)]
pub(crate) struct FetchSlot {
    /// The region names no index variable, so the unit fetches it once
    /// for all its instances.
    pub(crate) invariant: bool,
    /// Invariant fetch declarations before this one.
    pub(crate) invariant_before: usize,
}

impl FetchSlot {
    /// The layout of a kernel's fetch declarations, in declaration order.
    pub(crate) fn layout(kspec: &KernelSpec) -> Box<[FetchSlot]> {
        let mut invariant_before = 0;
        kspec
            .fetches
            .iter()
            .map(|fe| {
                let slot = FetchSlot {
                    invariant: !fe.varies_by_instance(),
                    invariant_before,
                };
                invariant_before += usize::from(slot.invariant);
                slot
            })
            .collect()
    }
}

/// The execution context handed to a kernel body: one kernel instance's
/// view of the world.
pub struct KernelCtx<'a> {
    pub(crate) spec: &'a KernelSpec,
    pub(crate) age: Age,
    pub(crate) indices: &'a [usize],
    /// This instance's position in its dispatch unit.
    pub(crate) slot: usize,
    /// The whole unit's fetched buffers, fetch-major: an invariant fetch
    /// holds one buffer shared by every instance, any other fetch `stride`
    /// buffers (the unit's instance count), one per slot.
    pub(crate) inputs: &'a [Buffer],
    /// The kernel's fetch layout ([`FetchSlot::layout`]).
    pub(crate) layout: &'a [FetchSlot],
    pub(crate) stride: usize,
    /// Every store staged so far by the unit's bodies.
    pub(crate) staged: &'a mut Vec<StagedStore>,
    pub(crate) timers: &'a TimerTable,
    /// The instance's fault-policy soft deadline (a fused consumer runs
    /// under its producer's). `None` when the kernel has no deadline
    /// configured.
    pub(crate) deadline: Option<Instant>,
}

impl KernelCtx<'_> {
    /// The instance's age (0 for kernels without an age variable).
    pub fn age(&self) -> Age {
        self.age
    }

    /// The value of index variable `v`.
    pub fn index(&self, v: usize) -> usize {
        self.indices[v]
    }

    /// The fetched buffer for the kernel's `i`-th fetch declaration.
    pub fn input(&self, i: usize) -> &Buffer {
        let f = self.layout[i];
        let base = f.invariant_before + (i - f.invariant_before) * self.stride;
        &self.inputs[if f.invariant { base } else { base + self.slot }]
    }

    fn stage(&mut self, store_idx: usize, region: Option<Region>, buffer: Buffer) {
        self.staged.push(StagedStore {
            slot: self.slot,
            kernel: self.spec.id,
            store_idx,
            region,
            age: None,
            buffer,
        });
    }

    /// Stage a store fulfilling store declaration `store_idx`; the target
    /// region comes from the declaration's index pattern and this
    /// instance's index variables.
    pub fn store(&mut self, store_idx: usize, buffer: Buffer) {
        self.stage(store_idx, None, buffer);
    }

    /// Stage a single-element store through the declaration's pattern.
    pub fn store_value(&mut self, store_idx: usize, value: Value) {
        self.store(store_idx, Buffer::scalar(value));
    }

    /// Stage a store to an explicit region of the declared field — for
    /// data-dependent target indices (the k-means `assign` kernel stores to
    /// the cluster chosen at runtime).
    pub fn store_region(&mut self, store_idx: usize, region: Region, buffer: Buffer) {
        self.stage(store_idx, Some(region), buffer);
    }

    /// Poll a deadline: has `timeout` passed since timer `name` was reset?
    pub fn deadline_expired(&self, name: &str, timeout: Duration) -> bool {
        self.timers.expired(name, timeout)
    }

    /// Reset a global timer (`t1 = now`).
    pub fn reset_timer(&self, name: &str) {
        self.timers.reset(name);
    }

    /// Cooperative cancellation poll: true once this instance has run
    /// past its [`crate::options::FaultPolicy`] soft deadline (one clock
    /// read). Long-running bodies should poll this and return `Err` to
    /// yield the worker; the failure then follows the kernel's normal
    /// retry/exhaustion path. Always false for kernels without a deadline.
    pub fn cancelled(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// How a fused consumer kernel is executed inline after its producer.
#[derive(Debug, Clone)]
pub struct FusionPlan {
    pub producer: KernelId,
    pub consumer: KernelId,
    /// Index of the producer's store declaration feeding the consumer.
    pub producer_store: usize,
    /// Whether the intermediate field store can be elided entirely (no
    /// other consumer fetches it — paper Figure 4's "if print was not
    /// present, storing to m_data could be circumvented").
    pub elide_store: bool,
}

/// A runnable P2G program: spec + bodies + per-kernel options + timers.
pub struct Program {
    pub(crate) spec: Arc<ProgramSpec>,
    pub(crate) bodies: Vec<Option<KernelBody>>,
    pub(crate) options: Vec<KernelOptions>,
    pub(crate) fusions: Vec<FusionPlan>,
    pub(crate) timers: Arc<TimerTable>,
}

impl Program {
    /// Wrap a validated spec. Fails when the spec is invalid.
    pub fn new(spec: ProgramSpec) -> Result<Program, RuntimeError> {
        spec.validate()?;
        let n = spec.kernels.len();
        Ok(Program {
            spec: Arc::new(spec),
            bodies: (0..n).map(|_| None).collect(),
            options: vec![KernelOptions::default(); n],
            fusions: Vec::new(),
            timers: Arc::new(TimerTable::new()),
        })
    }

    /// The underlying spec.
    pub fn spec(&self) -> &ProgramSpec {
        &self.spec
    }

    /// The program's timer table (declare timers before running).
    pub fn timers(&self) -> &Arc<TimerTable> {
        &self.timers
    }

    /// Register a body for a kernel by name. Panics on unknown names —
    /// that is a programming error, not a runtime condition. A kernel has
    /// exactly one body, written for one instance: a chunked dispatch unit
    /// (Figure 4, Age=2) runs it once per instance it holds.
    pub fn body<F>(&mut self, kernel: &str, f: F) -> &mut Program
    where
        F: Fn(&mut KernelCtx) -> BodyResult + Send + Sync + 'static,
    {
        let id = self
            .spec
            .kernel_by_name(kernel)
            .unwrap_or_else(|| panic!("unknown kernel '{kernel}'"));
        self.bodies[id.idx()] = Some(Box::new(f));
        self
    }

    /// Register a body by kernel id.
    pub fn body_id<F>(&mut self, kernel: KernelId, f: F) -> &mut Program
    where
        F: Fn(&mut KernelCtx) -> BodyResult + Send + Sync + 'static,
    {
        self.bodies[kernel.idx()] = Some(Box::new(f));
        self
    }

    /// Check every kernel has a body.
    pub fn check_bodies(&self) -> Result<(), RuntimeError> {
        for (i, b) in self.bodies.iter().enumerate() {
            if b.is_none() {
                return Err(RuntimeError::MissingBody {
                    kernel: self.spec.kernels[i].name.clone(),
                });
            }
        }
        Ok(())
    }

    /// Mutable access to a kernel's scheduler options.
    pub(crate) fn options_mut(&mut self, kernel: &str) -> &mut KernelOptions {
        let id = self
            .spec
            .kernel_by_name(kernel)
            .unwrap_or_else(|| panic!("unknown kernel '{kernel}'"));
        &mut self.options[id.idx()]
    }

    /// Set the data-granularity chunk size for a kernel (Figure 4, Age=2).
    pub fn set_chunk_size(&mut self, kernel: &str, chunk: usize) -> &mut Program {
        self.options_mut(kernel).chunk_size = chunk.max(1);
        self
    }

    /// Dispatch a kernel's instances strictly in age order (for kernels
    /// with ordered side effects like bitstream writers).
    pub fn set_ordered(&mut self, kernel: &str) -> &mut Program {
        self.options_mut(kernel).ordered = true;
        self
    }

    /// Set the fault-isolation policy for one kernel.
    pub fn set_fault_policy(&mut self, kernel: &str, policy: FaultPolicy) -> &mut Program {
        self.options_mut(kernel).fault = policy;
        self
    }

    /// Set the same fault-isolation policy on every kernel.
    pub fn set_fault_policy_all(&mut self, policy: FaultPolicy) -> &mut Program {
        for o in &mut self.options {
            o.fault = policy.clone();
        }
        self
    }

    /// Fuse `consumer` to run inline after `producer` (Figure 4, Age=3).
    ///
    /// Requirements (checked): the consumer has exactly one fetch; that
    /// fetch reads a field the producer stores, with the same age
    /// expression and a compatible index pattern. The intermediate store is
    /// elided when no other kernel fetches the field.
    pub fn fuse(&mut self, producer: &str, consumer: &str) -> Result<(), RuntimeError> {
        let pid = self
            .spec
            .kernel_by_name(producer)
            .ok_or_else(|| RuntimeError::MissingBody {
                kernel: producer.into(),
            })?;
        let cid = self
            .spec
            .kernel_by_name(consumer)
            .ok_or_else(|| RuntimeError::MissingBody {
                kernel: consumer.into(),
            })?;
        let c = self.spec.kernel(cid);
        if c.fetches.len() != 1 {
            return Err(RuntimeError::Kernel {
                kernel: consumer.into(),
                message: "fusion requires the consumer to have exactly one fetch".into(),
            });
        }
        let fe = &c.fetches[0];
        let p = self.spec.kernel(pid);
        let (store_idx, st) = p
            .stores
            .iter()
            .enumerate()
            .find(|(_, s)| s.field == fe.field && s.age == fe.age)
            .ok_or_else(|| RuntimeError::Kernel {
                kernel: producer.into(),
                message: "fusion requires a producer store matching the consumer fetch".into(),
            })?;
        let compatible = st.dims.len() == fe.dims.len()
            && st.dims.iter().zip(&fe.dims).all(|(a, b)| match (a, b) {
                (IndexSel::Var(_), IndexSel::Var(_)) => true,
                (IndexSel::All, IndexSel::All) => true,
                (IndexSel::Const(x), IndexSel::Const(y)) => x == y,
                _ => false,
            });
        if !compatible || st.age == AgeExpr::Const(u64::MAX) {
            return Err(RuntimeError::Kernel {
                kernel: consumer.into(),
                message: "fusion requires matching index patterns".into(),
            });
        }
        // Both sides must iterate over the same age space: fusing an aged
        // consumer onto an age-less producer (or vice versa) would pin the
        // consumer to the producer's single age.
        if p.has_age_var != c.has_age_var {
            return Err(RuntimeError::Kernel {
                kernel: consumer.into(),
                message: "fusion requires both kernels to age identically".into(),
            });
        }
        // The intermediate store survives when anyone else fetches it.
        let other_consumers = self
            .spec
            .consumers_of(fe.field)
            .iter()
            .any(|&(k, _)| k != cid);
        self.fusions.push(FusionPlan {
            producer: pid,
            consumer: cid,
            producer_store: store_idx,
            elide_store: !other_consumers,
        });
        Ok(())
    }
}

/// Resolve a fetch/store declaration's index pattern against an instance's
/// index-variable values, yielding the absolute region.
pub fn resolve_region(dims: &[IndexSel], indices: &[usize]) -> Region {
    Region(
        dims.iter()
            .map(|sel| match *sel {
                IndexSel::Var(v) => p2g_field::DimSel::Index(indices[v.0 as usize]),
                IndexSel::Const(c) => p2g_field::DimSel::Index(c),
                IndexSel::All => p2g_field::DimSel::All,
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2g_graph::spec::mul_sum_example;

    #[test]
    fn program_builds_from_valid_spec() {
        let p = Program::new(mul_sum_example()).unwrap();
        assert_eq!(p.spec().kernels.len(), 4);
        assert!(p.check_bodies().is_err()); // no bodies yet
    }

    #[test]
    fn body_registration() {
        let mut p = Program::new(mul_sum_example()).unwrap();
        for k in ["init", "mul2", "plus5", "print"] {
            p.body(k, |_| Ok(()));
        }
        p.check_bodies().unwrap();
    }

    #[test]
    #[should_panic(expected = "unknown kernel")]
    fn unknown_body_name_panics() {
        let mut p = Program::new(mul_sum_example()).unwrap();
        p.body("nope", |_| Ok(()));
    }

    #[test]
    fn fusion_mul2_plus5() {
        let mut p = Program::new(mul_sum_example()).unwrap();
        p.fuse("mul2", "plus5").unwrap();
        let mul2 = p.spec().kernel_by_name("mul2").unwrap();
        let plus5 = p.spec().kernel_by_name("plus5").unwrap();
        let [plan] = &p.fusions[..] else {
            panic!("expected one fusion plan, got {:?}", p.fusions)
        };
        assert_eq!((plan.producer, plan.consumer), (mul2, plus5));
        // print also fetches p_data, so the store cannot be elided.
        assert!(!plan.elide_store);
    }

    #[test]
    fn fusion_rejects_multi_fetch_consumer() {
        let mut p = Program::new(mul_sum_example()).unwrap();
        // print has two fetches.
        assert!(p.fuse("mul2", "print").is_err());
    }

    #[test]
    fn fusion_rejects_unrelated_pair() {
        let mut p = Program::new(mul_sum_example()).unwrap();
        // init stores m_data; plus5 fetches p_data: no matching store.
        assert!(p.fuse("init", "plus5").is_err());
    }

    #[test]
    fn resolve_region_substitutes_vars() {
        use p2g_graph::spec::IndexVar;
        let r = resolve_region(
            &[
                IndexSel::Var(IndexVar(1)),
                IndexSel::Const(3),
                IndexSel::All,
            ],
            &[10, 20],
        );
        assert_eq!(
            r,
            Region(vec![
                p2g_field::DimSel::Index(20),
                p2g_field::DimSel::Index(3),
                p2g_field::DimSel::All,
            ])
        );
    }

    #[test]
    fn options_builders() {
        let mut p = Program::new(mul_sum_example()).unwrap();
        p.set_chunk_size("mul2", 5).set_ordered("print");
        let mul2 = p.spec().kernel_by_name("mul2").unwrap();
        let print = p.spec().kernel_by_name("print").unwrap();
        assert_eq!(p.options[mul2.idx()].chunk_size, 5);
        assert!(p.options[print.idx()].ordered);
    }
}
