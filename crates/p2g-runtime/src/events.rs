//! Events on the publish–subscribe bus between workers and the dependency
//! analyzer.
//!
//! P2G is push-based: kernel instances publish store/resize events; the
//! analyzer subscribes to events for the fields each kernel fetches and
//! derives newly-runnable instances.

use std::time::Instant;

use p2g_field::{Age, Extents, FieldId, Region};
use p2g_graph::KernelId;

use crate::instance::DispatchUnit;

/// A store applied to a field by a kernel instance.
///
/// `region` and `extents` are captured *inside* the field write lock at
/// store time, so the event fully describes the store even though the
/// analyzer observes events asynchronously (possibly after later stores
/// have grown the field). `region` is pre-resolved to explicit
/// `Index`/`Range` selectors — never `All` — so its coordinates stay valid
/// under any extents that are a superset of `extents`.
#[derive(Debug, Clone)]
pub struct StoreEvent {
    pub field: FieldId,
    pub age: Age,
    /// The stored region, resolved against the extents at store time
    /// (no `All` selectors).
    pub region: Region,
    /// Field extents for this age immediately after the store applied.
    pub extents: Extents,
    /// Elements written by this store.
    pub elements: usize,
    /// True when this store completed the age (every element written).
    pub age_complete: bool,
    /// New extents when the store triggered an implicit resize.
    pub resized: Option<Extents>,
    /// Always `None`, and nothing reads it: only the analyzer makes an
    /// instance ready, so no store arrives with a consumer already
    /// dispatched. The field stays so that the event keeps its shape for
    /// callers that spell out the whole literal (the ledger's analyzer
    /// probe); it goes with the next benchmark change.
    pub inline_dispatched: Option<KernelId>,
}

/// Bus events consumed by the dependency analyzer.
#[derive(Debug, Clone)]
pub enum Event {
    /// A store landed in a field: a kernel instance's, or one forwarded
    /// from another node or a session submit, which is applied to the
    /// local replica before its event is sent.
    Store(StoreEvent),
    /// The cluster reassigned this node's kernel set after a node failure
    /// (distributed recovery). The analyzer adopts the new assignment,
    /// seeds any newly-owned source kernels, and rescans resident field
    /// data for instances that are now this node's responsibility.
    Reassign {
        kernels: std::collections::HashSet<KernelId>,
    },
    /// A dispatch unit finished executing. Drives source-kernel
    /// self-sequencing ("read the next frame only if this one stored
    /// something") and ordered-kernel gating.
    UnitDone {
        kernel: KernelId,
        age: Age,
        /// Instances covered by the unit.
        instances: usize,
        /// True when the unit's bodies performed at least one store.
        stored_any: bool,
        /// The unit's failed instances as a retry unit and the instant it
        /// falls due, when some instances failed within their retry
        /// budget: the unit is not yet finished, so ordered gating and
        /// source sequencing keep waiting for it, and the node's analyzer
        /// loop holds the retry until it is due. Its outstanding count was
        /// taken by the worker.
        retry: Option<(DispatchUnit, Instant)>,
    },
    /// A kernel instance failed for good (its retry budget, if any, is
    /// exhausted) under [`crate::options::ExhaustPolicy::Poison`]. The
    /// analyzer marks the instance's would-have-been stores poisoned and
    /// propagates poison to the transitively dependent instances, skipping
    /// them instead of aborting the run.
    KernelFailure {
        kernel: KernelId,
        age: Age,
        indices: Vec<usize>,
        message: String,
    },
    /// Uncounted: the node stopped. Sent so that an analyzer blocked on an
    /// empty channel wakes and sees the stop flag.
    Wake,
}
