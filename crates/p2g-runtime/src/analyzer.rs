//! The dependency analyzer: the serial heart of the low-level scheduler.
//!
//! On every store/resize event the analyzer finds all *new* valid
//! combinations of age and index variables whose fetch dependencies are now
//! fulfilled, and emits them as dispatch units (paper Section VI-B). It runs
//! in a dedicated thread — which is exactly why the paper's K-means workload
//! stops scaling past a handful of workers, an effect the Figure-10 bench
//! reproduces.
//!
//! # Incremental dependency analysis
//!
//! The analyzer is *delta-driven*: its per-event cost is proportional to the
//! stored region's rows and the instances the store affects — not to the
//! elements stored, nor to the kernel instance spaces. Three pieces make
//! this work:
//!
//! * **Views** — a per-(field, age) record of extents and accounted
//!   elements, built purely from store events. The hot path never takes a
//!   field lock; the event itself carries the resolved region and post-store
//!   extents (captured inside the store's write lock), so views converge on
//!   field ground truth as events drain.
//! * **Pending tables** — per-(kernel, age) remaining-dependency counters,
//!   one per instance, created lazily when the binding fetches' views first
//!   exist. A store decrements exactly the counters of instances whose fetch
//!   regions contain the stored elements, found by *inverting* the fetch
//!   patterns instead of enumerating the instance space: once per stored
//!   row and consumer fetch, the row's outer coordinates pin an instance
//!   rectangle, which is decremented by the row's newly accounted elements
//!   it reads. An instance whose counter hits zero is dispatched (if its
//!   gates are open).
//! * **Gates** — whole-field and whole-dimension fetches don't count
//!   elements; they wait for view completeness and settled extents. Gate
//!   state is cached per table and recomputed only for tables the event
//!   could have affected; a closed→open transition sweeps the table for
//!   ready instances.
//!
//! Inversion is the only rule: every fetch shape maps to one of the three
//! [`FetchKind`]s, and the analyzer never enumerates an instance space to
//! test it. [`Event::Reassign`] resynchronizes the views from field ground
//! truth and rebuilds the pending tables from them
//! ([`DependencyAnalyzer::rescan`]); poison inverts its region into the
//! instance box it reaches ([`DependencyAnalyzer::queue_poison_dependents`]).
//!
//! The analyzer also implements:
//! * **source-kernel sequencing** — a fetch-less kernel with an age
//!   variable (the MJPEG reader) gets its next age dispatched only after the
//!   previous instance completed *and stored something*; an instance that
//!   stores nothing ends the stream.
//! * **ordered-kernel gating** — instances of kernels marked ordered are
//!   released one age at a time (bitstream writers).
//! * **age garbage collection** — with a configured window, field ages far
//!   enough behind the field's newest age are reclaimed.
//!
//! A node runs exactly one analyzer, on its own thread, fed by one event
//! channel (paper Section V-C): it sees every event of the node in one
//! order, owns every `(kernel, age)` instance, and retires field ages on
//! its own.

use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use parking_lot::RwLock;

use p2g_field::bitmap::{remap_for_resize, BitIter};
use p2g_field::{Age, Bitmap, DimSel, Extents, Field, FieldId, Region, ShapedBitmap};
use p2g_graph::spec::{AgeExpr, IndexSel, KernelSpec};
use p2g_graph::{KernelId, ProgramSpec};

use crate::events::{Event, StoreEvent};
use crate::instance::DispatchUnit;
use crate::options::{KernelOptions, RunLimits};
use crate::program::FusionPlan;

/// Shared handle to the node's fields.
pub type SharedFields = Arc<Vec<RwLock<Field>>>;

/// Age-watch callback: `(age, poisoned)` fired on the analyzer thread when
/// every instance of the watched kernel at `age` has completed (or been
/// poisoned), in strictly increasing age order.
pub(crate) type AgeWatchFn = Arc<dyn Fn(u64, bool) + Send + Sync>;

/// A registered age watch: a frontier over one kernel's completed ages.
struct AgeWatch {
    kernel: KernelId,
    frontier: u64,
    callback: AgeWatchFn,
}

/// How the analyzer accounts one fetch declaration. Every fetch shape is
/// one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FetchKind {
    /// Every dimension is `All`: no counters; the fetch is satisfied when
    /// the view is complete and its extents settled (a gate).
    WholeField,
    /// No `All` dimension: the fetch selects exactly one element per
    /// instance; one counter unit.
    Pointwise,
    /// Some `All` dimensions next to `Var` and/or `Const` ones: a row/slab
    /// per instance, fixed by the instance's variables and the constants.
    /// Counters track the slab's unaccounted elements; the extents must
    /// also be settled (a gate), and extent growth bumps every counter by
    /// the slab growth.
    RowLike,
}

/// Event-derived knowledge of one (field, age): the extents seen so far and
/// which elements have been accounted into pending tables.
struct FieldView {
    extents: Extents,
    accounted: Bitmap,
}

/// Remaining-dependency counters for one (kernel, age): one slot per
/// instance of the (current) instance space.
struct PendingTable {
    /// Index-variable ranges the counters are laid out against (row-major).
    ranges: Extents,
    /// Unaccounted fetch elements per instance; zero ⇒ dispatchable once
    /// the gates open.
    remaining: Vec<u32>,
    /// Cached conjunction of the kernel's whole-field/settledness gates at
    /// this age.
    gates_open: bool,
}

/// See module docs.
pub struct DependencyAnalyzer {
    spec: Arc<ProgramSpec>,
    options: Vec<KernelOptions>,
    /// The node's fusion plans (Figure 4, Age=3): poison follows a failed
    /// producer into its fused consumer.
    fusions: Vec<FusionPlan>,
    /// Consumers of `fusions`: never dispatched on their own.
    fused_consumers: HashSet<KernelId>,
    fields: SharedFields,
    limits: RunLimits,
    /// Instances already dispatched (or held), per (kernel, age).
    dispatched: HashMap<(u32, u64), ShapedBitmap>,
    /// Kernels consuming each field (deduplicated), indexed by field.
    consumers: Vec<Vec<KernelId>>,
    /// For each kernel, the (fetch, dim) binding each index var's range.
    bindings: Vec<Vec<(usize, usize)>>,
    /// Per kernel, per fetch: how the analyzer accounts it.
    fetch_kinds: Vec<Vec<FetchKind>>,
    /// Event-derived (field, age) views — extents + accounted elements.
    views: HashMap<(u32, u64), FieldView>,
    /// Ages with a view, per field (replaces resident-age field reads on
    /// the hot path).
    view_ages: Vec<BTreeSet<u64>>,
    /// Pending-instance tables, per (kernel, age).
    tables: HashMap<(u32, u64), PendingTable>,
    /// Ages with a pending table, per kernel (constant-age fetch fan-out).
    table_ages: Vec<BTreeSet<u64>>,
    /// Ordered kernels: the age currently allowed to dispatch.
    ordered_next: HashMap<u32, u64>,
    /// Ordered kernels: units dispatched but not completed at the current
    /// age.
    ordered_outstanding: HashMap<u32, usize>,
    /// Ordered kernels: units held for future ages.
    held: HashMap<u32, BTreeMap<u64, Vec<DispatchUnit>>>,
    /// Highest age stored per field, for GC.
    field_max_age: Vec<u64>,
    /// Distributed mode: only these kernels run on this node. `None` runs
    /// everything (single-node mode).
    assigned: Option<HashSet<KernelId>>,
    /// Expected extents per (field, age) dimension, derived by propagating
    /// index-variable ranges from fetched fields to stored fields (the
    /// paper: "these extents are then propagated to the respective fields
    /// impacted by this resize"). Without this, a whole-field fetch of an
    /// implicitly-sized field could observe a transiently-complete prefix.
    expected_extents: HashMap<(u32, u64), Vec<Option<usize>>>,
    /// Kernel instances completed (UnitDone), per (kernel, age) — drives
    /// consumer-aware garbage collection.
    completed: HashMap<(u32, u64), usize>,
    /// Monotone cache: the smallest age of each kernel that is not yet
    /// fully dispatched + completed.
    gc_floor: HashMap<u32, u64>,
    /// Poisoned store regions per (field, age): the would-have-been stores
    /// of instances that exhausted their retry budget under
    /// [`crate::options::ExhaustPolicy::Poison`]. Regions may contain
    /// `All` selectors (intersection tests are `All`-aware), so they need
    /// no extents to be meaningful.
    poison: HashMap<(u32, u64), Vec<p2g_field::Region>>,
    /// Instances poisoned per (kernel, age) — the dedupe set and the
    /// oracle-checkable record of exactly which instances were skipped.
    poisoned_instances: HashMap<(u32, u64), HashSet<Vec<usize>>>,
    /// Worklist of instances awaiting poisoning (transitive propagation).
    pending_poison: Vec<(KernelId, u64, Vec<usize>)>,
    /// Newly poisoned instances since the last drain, for the node's
    /// instruments.
    poisoned_drain: Vec<(KernelId, u64, Vec<usize>)>,
    /// True once anything was poisoned: the run terminates
    /// [`crate::instrument::Termination::Degraded`] instead of `Quiescent`.
    degraded: bool,
    /// Tracer handle + the analyzer thread's buffer id, for the
    /// `AgeRetired` events of the age GC.
    tracer: Option<(Arc<crate::trace::Tracer>, u32)>,
    /// Registered age watches (session output notification).
    watches: Vec<AgeWatch>,
    /// Smallest un-collected age per field: the last GC limit applied.
    /// Gates the analyzer-state prune to once per limit advance.
    field_gc_floor: Vec<u64>,
    /// `(field, age)` slabs retired by GC since the last drain.
    gc_collected: u64,
    /// Adaptive mode: the online chunk-size controller consulted (instead
    /// of the static `chunk_size`) when chunking runnable instances.
    granularity: Option<Arc<crate::granularity::GranularityController>>,
    /// Steps of the accounting walk since the last drain: one per stored
    /// or counted row, plus one per fresh element a fetch that is `Var`
    /// along the row inverts on its own.
    elements_walked: Cell<u64>,
}

impl DependencyAnalyzer {
    /// Build the analyzer for a program. `fused_consumers` are never
    /// dispatched on their own; until [`Self::set_fusions`] names their
    /// producers, poison does not follow a producer into them.
    pub fn new(
        spec: Arc<ProgramSpec>,
        options: Vec<KernelOptions>,
        fused_consumers: HashSet<KernelId>,
        fields: SharedFields,
        limits: RunLimits,
    ) -> DependencyAnalyzer {
        let nf = spec.fields.len();
        let nk = spec.kernels.len();
        let mut consumers: Vec<Vec<KernelId>> = vec![Vec::new(); nf];
        {
            let mut seen: Vec<HashSet<u32>> = vec![HashSet::new(); nf];
            for k in &spec.kernels {
                for fe in &k.fetches {
                    if seen[fe.field.idx()].insert(k.id.0) {
                        consumers[fe.field.idx()].push(k.id);
                    }
                }
            }
        }
        let bindings =
            spec.kernels
                .iter()
                .map(|k| {
                    (0..k.index_vars as usize)
                        .map(|v| {
                            k.fetches
                                .iter()
                                .enumerate()
                                .find_map(|(fi, fe)| {
                                    fe.dims.iter().position(|d| {
                                    matches!(d, IndexSel::Var(iv) if iv.0 as usize == v)
                                })
                                .map(|dim| (fi, dim))
                                })
                                .expect("validated: every index var bound by a fetch")
                        })
                        .collect()
                })
                .collect();
        let fetch_kinds = spec
            .kernels
            .iter()
            .map(|k| {
                k.fetches
                    .iter()
                    .map(|fe| {
                        let alls = fe.dims.iter().filter(|d| matches!(d, IndexSel::All));
                        match alls.count() {
                            0 => FetchKind::Pointwise,
                            n if n == fe.dims.len() => FetchKind::WholeField,
                            _ => FetchKind::RowLike,
                        }
                    })
                    .collect()
            })
            .collect();
        DependencyAnalyzer {
            options,
            fusions: Vec::new(),
            fused_consumers,
            fields,
            limits,
            dispatched: HashMap::new(),
            consumers,
            bindings,
            fetch_kinds,
            views: HashMap::new(),
            view_ages: vec![BTreeSet::new(); nf],
            tables: HashMap::new(),
            table_ages: vec![BTreeSet::new(); nk],
            ordered_next: HashMap::new(),
            ordered_outstanding: HashMap::new(),
            held: HashMap::new(),
            field_max_age: vec![0; nf],
            assigned: None,
            expected_extents: HashMap::new(),
            completed: HashMap::new(),
            gc_floor: HashMap::new(),
            poison: HashMap::new(),
            poisoned_instances: HashMap::new(),
            pending_poison: Vec::new(),
            poisoned_drain: Vec::new(),
            degraded: false,
            tracer: None,
            watches: Vec::new(),
            field_gc_floor: vec![0; nf],
            gc_collected: 0,
            granularity: None,
            elements_walked: Cell::new(0),
            spec,
        }
    }

    /// Attach the node's fusion plans (Figure 4, Age=3), so poison follows
    /// a failed producer into its fused consumer.
    pub(crate) fn set_fusions(&mut self, fusions: &[FusionPlan]) {
        self.fusions = fusions.to_vec();
    }

    /// Attach the run's granularity controller: [`Self::chunk_size_for`]
    /// then follows its live per-kernel targets.
    pub(crate) fn set_granularity(
        &mut self,
        controller: Arc<crate::granularity::GranularityController>,
    ) {
        self.granularity = Some(controller);
    }

    /// The chunk size to cut `kernel`'s runnable instances into right now:
    /// the controller's live target when adaptation covers this kernel,
    /// the static [`KernelOptions::chunk_size`] otherwise.
    fn chunk_size_for(&self, kernel: KernelId) -> usize {
        if let Some(g) = &self.granularity {
            let c = g.chunk_for(kernel);
            if c > 0 {
                return c;
            }
        }
        self.options[kernel.idx()].chunk_size.max(1)
    }

    /// Drain the instances poisoned since the last call.
    pub fn take_poisoned(&mut self) -> Vec<(KernelId, u64, Vec<usize>)> {
        std::mem::take(&mut self.poisoned_drain)
    }

    /// True once any instance was poisoned — the run is degraded.
    pub(crate) fn degraded(&self) -> bool {
        self.degraded
    }

    /// Restrict dispatch to an assigned kernel subset (distributed mode).
    pub(crate) fn set_assigned(&mut self, assigned: HashSet<KernelId>) {
        self.assigned = Some(assigned);
    }

    /// Attach the node's tracer (with the analyzer thread's buffer id) so
    /// age retirements are traced.
    pub(crate) fn set_tracer(&mut self, tracer: Arc<crate::trace::Tracer>, tid: u32) {
        self.tracer = Some((tracer, tid));
    }

    /// Watch `kernel`'s age frontier: the callback fires once per age, in
    /// increasing order, when every instance of that age has completed or
    /// been poisoned. The session layer watches the terminal kernel to
    /// learn when a frame's output is ready.
    pub(crate) fn set_age_watch(&mut self, kernel: KernelId, callback: AgeWatchFn) {
        self.watches.push(AgeWatch {
            kernel,
            frontier: 0,
            callback,
        });
    }

    /// Drain the GC tally accumulated since the last call.
    pub(crate) fn take_gc_collected(&mut self) -> u64 {
        std::mem::take(&mut self.gc_collected)
    }

    /// Drain the accounting-walk steps taken since the last call.
    pub(crate) fn take_elements_walked(&mut self) -> u64 {
        self.elements_walked.take()
    }

    /// Live `(field, age)` views — the analyzer's notion of resident ages,
    /// sampled by the node's instruments for the peak-residency gauge.
    pub(crate) fn live_ages(&self) -> usize {
        self.views.len()
    }

    /// True when this node runs the given kernel.
    fn runs(&self, kid: KernelId) -> bool {
        self.assigned.as_ref().is_none_or(|s| s.contains(&kid))
    }

    /// Whether instances of `k` may exist at age `a` under the run limits.
    fn age_allowed(&self, k: &KernelSpec, a: u64) -> bool {
        if !k.has_age_var {
            return a == 0;
        }
        match self.limits.max_ages {
            Some(m) => a < m,
            None => true,
        }
    }

    /// Initial dispatch units: every source kernel's first instance.
    pub fn seed(&mut self) -> Vec<DispatchUnit> {
        let mut out = Vec::new();
        let source_ids: Vec<KernelId> = self
            .spec
            .kernels
            .iter()
            .filter(|k| k.is_source() && !self.fused_consumers.contains(&k.id))
            .map(|k| k.id)
            .filter(|&id| self.runs(id))
            .collect();
        for id in source_ids {
            if !self.age_allowed(self.spec.kernel(id), 0) {
                continue;
            }
            if self.mark_dispatched(id, 0, &[]) {
                self.emit(DispatchUnit::new(id, Age(0), vec![vec![]]), &mut out);
            }
        }
        out
    }

    /// Handle one event, returning newly runnable dispatch units. Every
    /// store, remote ones included, was applied and checked before its
    /// event was sent, so analysis itself never fails.
    pub fn on_event(&mut self, ev: &Event) -> Result<Vec<DispatchUnit>, p2g_field::FieldError> {
        let mut out = Vec::new();
        match ev {
            Event::Store(se) => self.on_store(se, &mut out),
            Event::Reassign { kernels } => {
                self.assigned = Some(kernels.clone());
                // Seed newly-owned source kernels (the dispatched set
                // dedups sources this node already ran) and rescan
                // resident field data for instances that are now ours.
                let seeded = self.seed();
                out.extend(seeded);
                self.rescan(&mut out);
            }
            Event::UnitDone {
                kernel,
                age,
                instances,
                stored_any,
                retried,
            } => self.on_unit_done(*kernel, *age, *instances, *stored_any, *retried, &mut out),
            Event::KernelFailure {
                kernel,
                age,
                indices,
                ..
            } => self.pending_poison.push((*kernel, age.0, indices.clone())),
            Event::Failure(_) => {}
        }
        self.process_poison(&mut out);
        self.advance_watches();
        Ok(out)
    }

    /// Fire every watch whose next age is now fully finished. Poisoned
    /// instances count as finished (with the poisoned flag), so a dropped
    /// frame still produces an (empty) notification instead of a stall.
    fn advance_watches(&mut self) {
        for i in 0..self.watches.len() {
            loop {
                let (kid, a) = {
                    let w = &self.watches[i];
                    (w.kernel, w.frontier)
                };
                if !self.watch_age_done(kid, a) {
                    break;
                }
                let poisoned = self
                    .poisoned_instances
                    .get(&(kid.0, a))
                    .is_some_and(|s| !s.is_empty());
                let callback = self.watches[i].callback.clone();
                self.watches[i].frontier = a + 1;
                callback(a, poisoned);
            }
        }
    }

    /// The watch done-predicate, mirroring [`Self::advance_ordered`]: the
    /// instance space is known, fully dispatched, and fully completed.
    fn watch_age_done(&mut self, kid: KernelId, a: u64) -> bool {
        if !self.age_allowed(self.spec.kernel(kid), a) {
            return false;
        }
        let Some(space) = self.instance_space(kid, a) else {
            return false;
        };
        let d = self.dispatched.get(&(kid.0, a)).map_or(0, |s| s.count());
        let c = *self.completed.get(&(kid.0, a)).unwrap_or(&0);
        d >= space && c >= d
    }

    /// Drain the poison worklist: each entry poisons one instance, which
    /// may queue its transitive dependents back onto the worklist.
    fn process_poison(&mut self, out: &mut Vec<DispatchUnit>) {
        while let Some((kid, a, idx)) = self.pending_poison.pop() {
            self.poison_one(kid, a, idx, out);
        }
    }

    /// Poison one instance: record it, mark it dispatched + completed (it
    /// will never run, but quiescence and ordered/GC accounting must see it
    /// as finished), poison its would-have-been store regions, and queue
    /// every dependent instance those regions feed.
    fn poison_one(&mut self, kid: KernelId, a: u64, idx: Vec<usize>, out: &mut Vec<DispatchUnit>) {
        if !self
            .poisoned_instances
            .entry((kid.0, a))
            .or_default()
            .insert(idx.clone())
        {
            return;
        }
        self.degraded = true;
        self.poisoned_drain.push((kid, a, idx.clone()));
        // A transitively poisoned instance was never dispatched; a directly
        // failed one already was (mark_dispatched dedups). Either way it
        // counts as completed — its UnitDone (if any) reported successes
        // only.
        self.mark_dispatched(kid, a, &idx);
        *self.completed.entry((kid.0, a)).or_insert(0) += 1;

        let k = self.spec.kernel(kid).clone();
        let fused = self
            .fusions
            .iter()
            .find(|f| f.producer == kid)
            .map(|f| f.consumer);
        for st in &k.stores {
            let ta = st.age.resolve(Age(a));
            let region = crate::program::resolve_region(&st.dims, &idx);
            self.poison
                .entry((st.field.0, ta.0))
                .or_default()
                .push(region.clone());
            // Non-fused consumers: invert the poisoned region into their
            // instance spaces.
            for cid in self.consumers[st.field.idx()].clone() {
                if self.fused_consumers.contains(&cid) {
                    continue;
                }
                for ca in self.affected_ages(cid, st.field, ta) {
                    self.queue_poison_dependents(cid, ca, st.field, ta, &region);
                }
            }
            // A fused consumer never dispatches separately: derive its
            // instance directly from the producer's store pattern (the
            // same Var mapping the worker uses to run it inline).
            if let Some(cid) = fused {
                let cspec = self.spec.kernel(cid);
                if let Some(fe) = cspec.fetches.first() {
                    if fe.field == st.field {
                        for ca in self.affected_ages(cid, st.field, ta) {
                            let mut cidx = vec![0usize; cspec.index_vars as usize];
                            for (sel_p, sel_c) in st.dims.iter().zip(&fe.dims) {
                                if let (IndexSel::Var(pv), IndexSel::Var(cv)) = (sel_p, sel_c) {
                                    cidx[cv.0 as usize] = idx[pv.0 as usize];
                                }
                            }
                            self.pending_poison.push((cid, ca, cidx));
                        }
                    }
                }
            }
        }

        // A poisoned source instance must not end the stream: later ages
        // are independent reads (frame dropping, not stream truncation).
        if k.is_source() && k.has_age_var {
            let next = a + 1;
            if self.age_allowed(&k, next) && self.mark_dispatched(kid, next, &[]) {
                self.emit(DispatchUnit::new(kid, Age(next), vec![vec![]]), out);
            }
        }
        // The poisoned instance may have been the one gating an ordered
        // kernel's age advancement.
        if self.options[kid.idx()].ordered {
            self.advance_ordered(kid, out);
        }
    }

    /// Queue for poisoning every instance of `cid` at age `ca` whose fetch
    /// of (`field`, `fa`) intersects the poisoned `region`, found by
    /// inverting each such fetch: a `Var` dimension intersects its
    /// variable's range with the region's, a `Const` one must lie inside
    /// the region, and an `All` one needs a non-empty region dimension.
    /// Instance ranges come from [`DependencyAnalyzer::known_extent`]; when
    /// a binding range is still unknown nothing is queued —
    /// [`DependencyAnalyzer::create_table`] re-checks the poison map when
    /// the space becomes known.
    fn queue_poison_dependents(
        &mut self,
        cid: KernelId,
        ca: u64,
        field: FieldId,
        fa: Age,
        region: &p2g_field::Region,
    ) {
        let k = self.spec.kernel(cid);
        if k.is_source() || !self.age_allowed(k, ca) {
            return;
        }
        let mut ranges = Vec::with_capacity(k.index_vars as usize);
        for &(fi, dim) in &self.bindings[cid.idx()] {
            let fe = &k.fetches[fi];
            match self.known_extent(fe.field, fe.age.resolve(Age(ca)), dim) {
                Some(r) => ranges.push(r),
                None => return,
            }
        }
        let mut hits: Vec<Vec<usize>> = Vec::new();
        for fe in &k.fetches {
            if fe.field != field || fe.age.resolve(Age(ca)) != fa {
                continue;
            }
            // The instance box [lo, hi) this fetch reads the region from.
            let mut lo = vec![0usize; ranges.len()];
            let mut hi = ranges.clone();
            let reads = fe.dims.iter().zip(&region.0).all(|(sel, rsel)| {
                let (start, end) = match *rsel {
                    p2g_field::DimSel::Index(i) => (i, i + 1),
                    p2g_field::DimSel::Range { start, len } => (start, start + len),
                    p2g_field::DimSel::All => (0, usize::MAX),
                };
                match *sel {
                    IndexSel::Var(v) => {
                        let v = v.0 as usize;
                        lo[v] = lo[v].max(start);
                        hi[v] = hi[v].min(end);
                        true
                    }
                    IndexSel::Const(c) => start <= c && c < end,
                    IndexSel::All => start < end,
                }
            });
            if !reads || lo.iter().zip(&hi).any(|(l, h)| l >= h) {
                continue;
            }
            let shape = Extents(lo.iter().zip(&hi).map(|(l, h)| h - l).collect());
            hits.extend((0..shape.len()).map(|lin| {
                let off = shape.delinearize(lin);
                off.iter().zip(&lo).map(|(o, l)| o + l).collect()
            }));
        }
        let done = self.poisoned_instances.get(&(cid.0, ca));
        hits.retain(|idx| !done.is_some_and(|s| s.contains(idx)));
        self.pending_poison
            .extend(hits.into_iter().map(|idx| (cid, ca, idx)));
    }

    /// Re-scan the poison map against (kid, a)'s fetches — called when the
    /// kernel's instance space first becomes (or grows) known, catching
    /// dependents [`DependencyAnalyzer::queue_poison_dependents`] could not
    /// enumerate earlier.
    fn poison_scan_kernel(&mut self, kid: KernelId, a: u64) {
        if self.poison.is_empty() {
            return;
        }
        let k = self.spec.kernel(kid).clone();
        for fe in &k.fetches {
            let fa = fe.age.resolve(Age(a));
            let Some(regions) = self.poison.get(&(fe.field.0, fa.0)).cloned() else {
                continue;
            };
            for region in regions {
                self.queue_poison_dependents(kid, a, fe.field, fa, &region);
            }
        }
    }

    /// The best-known extent of (field, age) along dimension `d`:
    /// statically declared extents, then propagated expectations, then the
    /// event-derived view. `None` while genuinely unknown.
    fn known_extent(&self, field: FieldId, age: Age, d: usize) -> Option<usize> {
        if let Some(ext) = &self.spec.fields[field.idx()].initial_extents {
            return Some(ext.dim(d));
        }
        if let Some(exp) = self.expected_extents.get(&(field.0, age.0)) {
            if let Some(n) = exp[d] {
                return Some(n);
            }
        }
        self.views.get(&(field.0, age.0)).map(|v| v.extents.dim(d))
    }

    /// Re-derive runnable instances from all resident field data — used
    /// after a [`Event::Reassign`] so kernels this node just inherited
    /// catch up on data that arrived while another node owned them. Views
    /// are resynchronized from field ground truth (events this analyzer
    /// never saw may have been replayed into the fields); then every
    /// consumer table an age of resident data can reach is rebuilt from the
    /// synced views and swept if its gates are open — the store path's own
    /// table code. The dispatched set makes this idempotent.
    fn rescan(&mut self, out: &mut Vec<DispatchUnit>) {
        // Resync views with the fields.
        self.views.clear();
        for va in &mut self.view_ages {
            va.clear();
        }
        for fi in 0..self.fields.len() {
            let field = self.fields[fi].read();
            for age in field.resident_ages().collect::<Vec<_>>() {
                let Some(ad) = field.age_data(age) else {
                    continue;
                };
                self.views.insert(
                    (fi as u32, age.0),
                    FieldView {
                        extents: ad.extents().clone(),
                        accounted: ad.written().clone(),
                    },
                );
                self.view_ages[fi].insert(age.0);
            }
        }
        // Drop the stale pending tables; their counters may predate stores
        // this analyzer never saw.
        self.tables.clear();
        for ta in &mut self.table_ages {
            ta.clear();
        }

        // Propagate every expectation before any gate is read: a gate
        // opened on a partial propagation could dispatch on a transiently
        // complete prefix.
        let mut keys: BTreeSet<(u32, u64)> = BTreeSet::new();
        for fi in 0..self.fields.len() {
            let resident: Vec<u64> = self.view_ages[fi].iter().copied().collect();
            for kid in self.consumers[fi].clone() {
                if self.fused_consumers.contains(&kid) {
                    continue;
                }
                for &ra in &resident {
                    let ages = self.affected_ages(kid, FieldId(fi as u32), Age(ra));
                    self.propagate_extents(kid, &ages, &mut Vec::new());
                    keys.extend(ages.into_iter().map(|a| (kid.0, a)));
                }
            }
        }
        for (k, a) in keys {
            self.create_table(KernelId(k), a);
            self.regate(KernelId(k), a, &mut HashMap::new(), out);
        }
    }

    fn on_store(&mut self, se: &StoreEvent, out: &mut Vec<DispatchUnit>) {
        // Track the field's frontier and garbage collect behind it.
        let fmax = &mut self.field_max_age[se.field.idx()];
        if se.age.0 > *fmax {
            *fmax = se.age.0;
        }
        let fmax = *fmax;
        if let Some(w) = self.limits.gc_window {
            // `gc_limit` clamps the window bound by every consumer's safe
            // age, so no live age retires.
            let fi = se.field.idx();
            if fmax > w {
                let limit = self.gc_limit(se.field, fmax - w);
                if limit > self.field_gc_floor[fi] {
                    let collected = self.fields[fi].write().collect_below(Age(limit));
                    self.gc_collected += collected as u64;
                    if let Some((t, tid)) = &self.tracer {
                        t.record(
                            *tid,
                            crate::trace::TraceEvent::AgeRetired {
                                field: se.field,
                                below: limit,
                                collected,
                            },
                        );
                    }
                    // The prune runs once per floor advance, not per store
                    // event: streaming runs would otherwise grow views/
                    // tables/dispatched/completed maps without bound even
                    // though the field data itself is collected.
                    self.field_gc_floor[fi] = limit;
                    let f = se.field.0;
                    self.views.retain(|&(vf, va), _| vf != f || va >= limit);
                    self.view_ages[fi].retain(|&a| a >= limit);
                    self.poison.retain(|&(pf, pa), _| pf != f || pa >= limit);
                    self.expected_extents
                        .retain(|&(ef, ea), _| ef != f || ea >= limit);
                    self.prune_kernel_state();
                }
            }
            // An event below the floor is stale (its slabs are gone);
            // rebuilding a view for it would leak state that no later
            // event prunes.
            if se.age.0 < self.field_gc_floor[fi] {
                return;
            }
        }

        // Update this (field, age)'s view: union-grow the extents (worker
        // events can arrive out of store order) and remap the accounted
        // bitmap. Fresh elements are accounted *after* the pending tables
        // are brought up to date (step order prevents double-counting).
        let vkey = (se.field.0, se.age.0);
        let old_view_extents: Option<Extents> = match self.views.get_mut(&vkey) {
            Some(view) => {
                let old = view.extents.clone();
                let target = view.extents.union(&se.extents);
                if target != view.extents {
                    view.accounted = remap_for_resize(&view.accounted, &view.extents, &target);
                    view.extents = target;
                }
                Some(old)
            }
            None => {
                self.views.insert(
                    vkey,
                    FieldView {
                        extents: se.extents.clone(),
                        accounted: Bitmap::new(se.extents.len()),
                    },
                );
                self.view_ages[se.field.idx()].insert(se.age.0);
                None
            }
        };

        // The kernel ages this store may affect, per consumer.
        let consumer_ids = self.consumers[se.field.idx()].clone();
        let mut affected: Vec<(KernelId, Vec<u64>)> = Vec::with_capacity(consumer_ids.len());
        for &kid in &consumer_ids {
            if self.fused_consumers.contains(&kid) {
                continue;
            }
            affected.push((kid, self.affected_ages(kid, se.field, se.age)));
        }

        // Propagate expected extents downstream (cluster-global knowledge,
        // so it ignores the node-local kernel assignment). Growth of an
        // expectation can only *close* settledness gates, so the gates of
        // the changed fields' consumers are rechecked below.
        let mut expected_changed: Vec<(u32, u64)> = Vec::new();
        for (kid, ages) in &affected {
            self.propagate_extents(*kid, ages, &mut expected_changed);
        }
        let mut gate_check: HashSet<(u32, u64)> = HashSet::new();
        expected_changed.sort_unstable();
        expected_changed.dedup();
        for (f, ta) in expected_changed {
            for kid2 in self.consumers[f as usize].clone() {
                if self.fused_consumers.contains(&kid2) {
                    continue;
                }
                for a2 in self.affected_ages(kid2, FieldId(f), Age(ta)) {
                    gate_check.insert((kid2.0, a2));
                }
            }
        }

        // Bring consumer pending tables up to date: create lazily, bump
        // row-like counters for slab growth, grow the instance space for
        // binding-extent growth.
        for (kid, ages) in &affected {
            for &a in ages {
                if !self.age_allowed(self.spec.kernel(*kid), a) {
                    continue;
                }
                self.ensure_table(*kid, a, se, old_view_extents.as_ref());
                gate_check.insert((kid.0, a));
            }
        }

        // Decrement phase: account each fresh element and decrement the
        // counters of every instance whose fetch regions contain it, via
        // the inverted fetch patterns. Collect counters that hit zero.
        let mut zeros: HashMap<(u32, u64), Vec<usize>> = HashMap::new();
        self.account_and_decrement(se, &mut zeros);

        // Gate recompute + dispatch.
        let mut keys: Vec<(u32, u64)> = gate_check
            .into_iter()
            .chain(zeros.keys().copied())
            .collect();
        keys.sort_unstable();
        keys.dedup();
        for (k, a) in keys {
            self.regate(KernelId(k), a, &mut zeros, out);
        }
    }

    /// Recompute the cached gate of (kid, a)'s table, if it has one. A
    /// closed→open transition sweeps the whole table (zeros accumulated
    /// while closed, initial zeros); an open gate dispatches the table's
    /// entry in `zeros`, this event's transitions; a closed gate drops
    /// them (a future sweep picks them up).
    fn regate(
        &mut self,
        kid: KernelId,
        a: u64,
        zeros: &mut HashMap<(u32, u64), Vec<usize>>,
        out: &mut Vec<DispatchUnit>,
    ) {
        let key = (kid.0, a);
        if !self.tables.contains_key(&key) {
            return;
        }
        let open = self.table_gate(kid, a);
        let table = self.tables.get_mut(&key).expect("checked above");
        let was_open = std::mem::replace(&mut table.gates_open, open);
        if !open {
            return;
        }
        if !was_open {
            self.sweep_table(kid, a, out);
        } else if let Some(lins) = zeros.remove(&key) {
            self.dispatch_ready(kid, a, lins, out);
        }
    }

    /// Create or update the pending table of (kid, a) for a store on
    /// `se.field`: bump row-like counters for slab growth of the stored
    /// view, then grow the instance space if a binding extent grew.
    fn ensure_table(&mut self, kid: KernelId, a: u64, se: &StoreEvent, old_ext: Option<&Extents>) {
        let key = (kid.0, a);
        if !self.tables.contains_key(&key) {
            self.create_table(kid, a);
            return;
        }
        let k = self.spec.kernel(kid);

        // Slab growth: the stored view's extents grew, so every row-like
        // fetch of it now spans more elements — all of them unaccounted.
        // The bump applies uniformly to every instance (the slab shape
        // does not depend on the instance's fixed coordinates).
        let view_ext = self
            .views
            .get(&(se.field.0, se.age.0))
            .map(|v| v.extents.clone())
            .expect("view exists for the stored field");
        let grew = old_ext.is_none_or(|o| *o != view_ext);
        if grew {
            let mut bump = 0u64;
            for (fi, fe) in k.fetches.iter().enumerate() {
                if fe.field != se.field
                    || fe.age.resolve(Age(a)) != se.age
                    || self.fetch_kinds[kid.idx()][fi] != FetchKind::RowLike
                {
                    continue;
                }
                let new_slab: usize = fe
                    .dims
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| matches!(s, IndexSel::All))
                    .map(|(d, _)| view_ext.dim(d))
                    .product();
                let old_slab: usize = match old_ext {
                    None => 0,
                    Some(o) => fe
                        .dims
                        .iter()
                        .enumerate()
                        .filter(|(_, s)| matches!(s, IndexSel::All))
                        .map(|(d, _)| o.dim(d))
                        .product(),
                };
                bump += (new_slab - old_slab) as u64;
            }
            if bump > 0 {
                let table = self.tables.get_mut(&key).expect("checked above");
                for slot in &mut table.remaining {
                    *slot += bump as u32;
                }
            }
        }

        // Instance-space growth: a binding extent grew. Old instances keep
        // their counters (remapped into the new row-major layout); new
        // instances are initialized from the views.
        if let Some(new_ranges) = self.table_ranges(kid, a) {
            let old_ranges = self.tables[&key].ranges.clone();
            if new_ranges != old_ranges {
                let target = old_ranges.union(&new_ranges);
                let shared = self.missing(kid, a, &[], false);
                let mut remaining = vec![0u32; target.len()];
                for (lin, slot) in remaining.iter_mut().enumerate() {
                    let idx = target.delinearize(lin);
                    *slot = match old_ranges.linearize(&idx) {
                        Some(old_lin) => self.tables[&key].remaining[old_lin],
                        None => shared + self.missing(kid, a, &idx, true),
                    };
                }
                let table = self.tables.get_mut(&key).expect("checked above");
                table.ranges = target.clone();
                table.remaining = remaining;
                if let Some(bm) = self.dispatched.get_mut(&key) {
                    bm.grow(&target);
                }
                // New instances appeared: re-check them against the poison
                // map.
                self.poison_scan_kernel(kid, a);
            }
        }
    }

    /// Create the pending table of (kid, a) from the current views — when
    /// it is a non-source instance age the run limits allow, and
    /// once every binding fetch has a view. On the store path the counters
    /// are initialized *before* the event's elements are accounted, so the
    /// decrement phase sees them as pending. The table starts closed; the
    /// caller's [`Self::regate`] performs the initial sweep.
    fn create_table(&mut self, kid: KernelId, a: u64) {
        let k = self.spec.kernel(kid);
        if k.is_source() || !self.age_allowed(k, a) {
            return;
        }
        let Some(ranges) = self.table_ranges(kid, a) else {
            return; // a binding view is still missing
        };
        let shared = self.missing(kid, a, &[], false);
        let remaining = (0..ranges.len())
            .map(|lin| shared + self.missing(kid, a, &ranges.delinearize(lin), true))
            .collect();
        self.tables.insert(
            (kid.0, a),
            PendingTable {
                ranges,
                remaining,
                gates_open: false,
            },
        );
        self.table_ages[kid.idx()].insert(a);
        // The instance space just became known: dependents of any earlier
        // poison can now be found.
        self.poison_scan_kernel(kid, a);
    }

    /// The instance-space shape of (kid, a) from the binding fetches'
    /// views; `None` while some binding view is missing.
    fn table_ranges(&self, kid: KernelId, a: u64) -> Option<Extents> {
        let k = self.spec.kernel(kid);
        let mut dims = Vec::with_capacity(k.index_vars as usize);
        for &(fi, dim) in &self.bindings[kid.idx()] {
            let fe = &k.fetches[fi];
            let fa = fe.age.resolve(Age(a));
            let view = self.views.get(&(fe.field.0, fa.0))?;
            dims.push(view.extents.dim(dim));
        }
        Some(Extents(dims))
    }

    /// Count unaccounted fetch elements of instance `idx` of (kid, a)
    /// against the current views — summed over the fetches with a `Var`
    /// dimension when `per_instance`, and otherwise over the rest, which
    /// read the same elements for every instance (`idx` unused). An
    /// instance's pending counter starts at the sum of both.
    ///
    /// Whole-field fetches contribute nothing (gates). A counted fetch
    /// reads a slab: its `Var` and `Const` dims fixed, its `All` dims
    /// spanning the view (one element for a pointwise fetch). A missing
    /// view contributes the full pointwise element, and nothing for a
    /// row-like slab (its extent is zero until the view exists, and its
    /// settledness gate is closed until then); a fixed coordinate outside
    /// the view's extents leaves the whole slab unaccounted.
    fn missing(&self, kid: KernelId, a: u64, idx: &[usize], per_instance: bool) -> u32 {
        let k = self.spec.kernel(kid);
        let kinds = &self.fetch_kinds[kid.idx()];
        let mut missing = 0u32;
        for (fi, fe) in k.fetches.iter().enumerate() {
            let varies = fe.dims.iter().any(|s| matches!(s, IndexSel::Var(_)));
            if kinds[fi] == FetchKind::WholeField || varies != per_instance {
                continue;
            }
            let fa = fe.age.resolve(Age(a));
            let Some(view) = self.views.get(&(fe.field.0, fa.0)) else {
                missing += u32::from(kinds[fi] == FetchKind::Pointwise);
                continue;
            };
            let mut in_bounds = true;
            let slab = Region(
                fe.dims
                    .iter()
                    .enumerate()
                    .map(|(d, s)| {
                        let c = match s {
                            IndexSel::Var(v) => idx[v.0 as usize],
                            IndexSel::Const(c) => *c,
                            IndexSel::All => {
                                return DimSel::Range {
                                    start: 0,
                                    len: view.extents.dim(d),
                                }
                            }
                        };
                        in_bounds &= c < view.extents.dim(d);
                        DimSel::Index(c)
                    })
                    .collect(),
            );
            missing += if in_bounds {
                self.count_unaccounted(&slab, view)
            } else {
                slab.len(&view.extents).expect("slab has the view's rank") as u32
            };
        }
        missing
    }

    /// Count the unaccounted elements of the in-bounds region `slab` of
    /// `view`, a row at a time.
    fn count_unaccounted(&self, slab: &Region, view: &FieldView) -> u32 {
        let (rows, row) = slab.rows(&view.extents).expect("slab within view extents");
        let mut missing = 0usize;
        for start in rows {
            self.elements_walked.set(self.elements_walked.get() + 1);
            missing += row - view.accounted.count_run(start, row);
        }
        missing as u32
    }

    /// Account the store's fresh elements into its view a row at a time,
    /// and per row decrement, once per consumer fetch, the pending counters
    /// of the instance rectangle whose inverted fetch pattern reads the
    /// row's fresh elements, by the number it reads. Counters hitting zero
    /// are collected into `zeros` by table linear index.
    fn account_and_decrement(
        &mut self,
        se: &StoreEvent,
        zeros: &mut HashMap<(u32, u64), Vec<usize>>,
    ) {
        // The inversion plan: each counted consumer fetch of this field
        // whose resolved age matches, with the kernel ages it feeds and
        // scratch for the instance rectangle.
        struct Plan {
            kid: KernelId,
            fetch: usize,
            ages: Vec<u64>,
            pins: Vec<Option<usize>>,
            cursor: Vec<usize>,
        }
        impl Plan {
            /// Decrement the pinned rectangle by `amount` at every age.
            fn decrement(
                &mut self,
                tables: &mut HashMap<(u32, u64), PendingTable>,
                amount: u32,
                zeros: &mut HashMap<(u32, u64), Vec<usize>>,
            ) {
                for &a in &self.ages {
                    let key = (self.kid.0, a);
                    let Some(table) = tables.get_mut(&key) else {
                        continue;
                    };
                    decrement_rectangle(table, &self.pins, &mut self.cursor, amount, |lin| {
                        zeros.entry(key).or_default().push(lin);
                    });
                }
            }
        }
        let mut plans: Vec<Plan> = Vec::new();
        for &kid in &self.consumers[se.field.idx()] {
            if self.fused_consumers.contains(&kid) {
                continue;
            }
            let k = self.spec.kernel(kid);
            for (fi, fe) in k.fetches.iter().enumerate() {
                if fe.field != se.field || self.fetch_kinds[kid.idx()][fi] == FetchKind::WholeField
                {
                    continue;
                }
                let ages: Vec<u64> = match fe.age {
                    AgeExpr::Rel(t) => {
                        if !k.has_age_var {
                            if se.age.0 as i64 == t {
                                vec![0]
                            } else {
                                continue;
                            }
                        } else if se.age.0 as i64 >= t {
                            vec![(se.age.0 as i64 - t) as u64]
                        } else {
                            continue;
                        }
                    }
                    AgeExpr::Const(c) => {
                        if se.age.0 != c {
                            continue;
                        }
                        // A constant-age store feeds every existing table.
                        self.table_ages[kid.idx()].iter().copied().collect()
                    }
                };
                let ages: Vec<u64> = ages
                    .into_iter()
                    .filter(|&a| self.tables.contains_key(&(kid.0, a)))
                    .collect();
                if !ages.is_empty() {
                    let nvars = k.index_vars as usize;
                    plans.push(Plan {
                        kid,
                        fetch: fi,
                        ages,
                        pins: vec![None; nvars],
                        cursor: vec![0; nvars],
                    });
                }
            }
        }

        // Walk the stored region by rows against the (union-grown) view
        // extents; the event's region is pre-resolved so it stays valid
        // under the larger extents. A row's fresh bits are the elements no
        // earlier event accounted (duplicates and replays overlap).
        let FieldView { extents, accounted } = self
            .views
            .get_mut(&vkey_of(se))
            .expect("view created above");
        let Ok((mut rows, row_len)) = se.region.rows(extents) else {
            // Unreachable for a landed store: its region resolved against
            // extents no larger than the view's.
            return;
        };
        // Only a fetch that is not `All` along the row reads the fresh
        // bits themselves; the others take their count.
        let keep_bits = plans.iter().any(|p| {
            let fe = &self.spec.kernel(p.kid).fetches[p.fetch];
            !matches!(fe.dims.last(), None | Some(IndexSel::All))
        });
        let mut fresh_words: Vec<BitIter> = Vec::new();
        while let Some(row_start) = rows.next() {
            let coord = rows.index();
            fresh_words.clear();
            let fresh = accounted.fill_run(row_start, row_len, |bits| {
                if keep_bits {
                    fresh_words.push(bits);
                }
            });
            self.elements_walked.set(self.elements_walked.get() + 1);
            if fresh == 0 {
                continue;
            }
            // The fresh bits' coordinates along the row dimension.
            let row_x0 = coord.last().copied().unwrap_or(0);
            let fresh_xs = || {
                fresh_words
                    .iter()
                    .cloned()
                    .flatten()
                    .map(|b| b - row_start + row_x0)
            };
            for plan in &mut plans {
                let fe = &self.spec.kernel(plan.kid).fetches[plan.fetch];
                // Invert the fetch pattern over the row: the outer
                // coordinates pin Var dims and filter Const dims.
                plan.pins.fill(None);
                // A scalar field's one element reads like an `All` row.
                let (row_sel, outer) = fe.dims.split_last().unwrap_or((&IndexSel::All, &[]));
                let applies = outer.iter().zip(coord).all(|(s, &c)| match *s {
                    IndexSel::Var(v) => pin(&mut plan.pins, v.0 as usize, c),
                    IndexSel::Const(k) => k == c,
                    IndexSel::All => true,
                });
                if !applies {
                    continue;
                }
                // Along the row: All takes the fresh count at once; a
                // Const, or a Var the outer dims already pinned, tests one
                // bit; a free Var pins each fresh bit, one instance each.
                let target = match *row_sel {
                    IndexSel::All => {
                        plan.decrement(&mut self.tables, fresh as u32, zeros);
                        continue;
                    }
                    IndexSel::Const(k) => k,
                    IndexSel::Var(v) => match plan.pins[v.0 as usize] {
                        Some(p) => p,
                        None => {
                            for x in fresh_xs() {
                                self.elements_walked.set(self.elements_walked.get() + 1);
                                plan.pins[v.0 as usize] = Some(x);
                                plan.decrement(&mut self.tables, 1, zeros);
                            }
                            continue;
                        }
                    },
                };
                if fresh_xs().any(|x| x == target) {
                    plan.decrement(&mut self.tables, 1, zeros);
                }
            }
        }
    }

    /// The conjunction of (kid, a)'s whole-field and settledness gates
    /// against the current views.
    fn table_gate(&self, kid: KernelId, a: u64) -> bool {
        let k = self.spec.kernel(kid);
        let kinds = &self.fetch_kinds[kid.idx()];
        for (fi, fe) in k.fetches.iter().enumerate() {
            let fa = fe.age.resolve(Age(a));
            match kinds[fi] {
                FetchKind::Pointwise => {}
                FetchKind::WholeField => {
                    let Some(view) = self.views.get(&(fe.field.0, fa.0)) else {
                        return false;
                    };
                    if view.accounted.count() != view.extents.len()
                        || !self.extents_settled(fe.field, fa, &view.extents)
                    {
                        return false;
                    }
                }
                FetchKind::RowLike => {
                    let Some(view) = self.views.get(&(fe.field.0, fa.0)) else {
                        return false;
                    };
                    if !self.extents_settled(fe.field, fa, &view.extents) {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Dispatch every instance of (kid, a) with a zero counter that has
    /// not been dispatched yet — the closed→open gate transition.
    fn sweep_table(&mut self, kid: KernelId, a: u64, out: &mut Vec<DispatchUnit>) {
        let table = &self.tables[&(kid.0, a)];
        let ready: Vec<usize> = (0..table.remaining.len())
            .filter(|&lin| table.remaining[lin] == 0)
            .collect();
        self.dispatch_ready(kid, a, ready, out);
    }

    /// Dispatch the given table linear indices of (kid, a), skipping
    /// already-dispatched instances, in row-major order, chunked.
    fn dispatch_ready(
        &mut self,
        kid: KernelId,
        a: u64,
        mut lins: Vec<usize>,
        out: &mut Vec<DispatchUnit>,
    ) {
        if lins.is_empty() || !self.runs(kid) {
            return;
        }
        lins.sort_unstable();
        lins.dedup();
        let ranges = self.tables[&(kid.0, a)].ranges.clone();
        // Pre-grow the dispatched bitmap to the full instance space once —
        // growing it per instance would remap the bitmap O(instances)
        // times.
        let bm = self
            .dispatched
            .entry((kid.0, a))
            .or_insert_with(|| ShapedBitmap::new(ranges.clone()));
        bm.grow(&ranges);
        let mut runnable: Vec<Vec<usize>> = Vec::new();
        for lin in lins {
            let idx = ranges.delinearize(lin);
            if bm.set(&idx) {
                runnable.push(idx);
            }
        }
        let chunk = self.chunk_size_for(kid);
        for group in runnable.chunks(chunk) {
            self.emit(DispatchUnit::new(kid, Age(a), group.to_vec()), out);
        }
    }

    /// For kernel `kid`, carry the index-variable ranges observed on its
    /// fetched fields' views over to the extents expected of the kernel's
    /// store targets at the given instance ages. Expectations that grew are
    /// appended to `changed` as (field, age) so settledness gates can be
    /// rechecked.
    ///
    /// Every fetch participates, not just those of the field that
    /// triggered the event: a kernel whose store extent is derived from a
    /// constant-age fetch (k-means `assign`: `datapoints(0)[x]` sizing
    /// `assignments(a)`) must have the expectation propagated at *every*
    /// age, including ages the constant-age field never stores at again.
    fn propagate_extents(&mut self, kid: KernelId, ages: &[u64], changed: &mut Vec<(u32, u64)>) {
        let k = self.spec.kernel(kid);
        let mut updates: Vec<(u32, u64, usize, usize)> = Vec::new();
        for fe in &k.fetches {
            for a in ages {
                let fa = fe.age.resolve(Age(*a));
                let Some(view) = self.views.get(&(fe.field.0, fa.0)) else {
                    continue;
                };
                let ext = &view.extents;
                for (d, sel) in fe.dims.iter().enumerate() {
                    let IndexSel::Var(v) = sel else { continue };
                    let range = ext.dim(d);
                    for st in &k.stores {
                        let ta = st.age.resolve(Age(*a));
                        for (d2, sel2) in st.dims.iter().enumerate() {
                            if matches!(sel2, IndexSel::Var(v2) if v2 == v) {
                                updates.push((st.field.0, ta.0, d2, range));
                            }
                        }
                    }
                }
            }
        }
        for (f, a, d, range) in updates {
            let ndim = self.spec.fields[f as usize].ndim;
            let entry = self
                .expected_extents
                .entry((f, a))
                .or_insert_with(|| vec![None; ndim]);
            let slot = &mut entry[d];
            let before = *slot;
            *slot = Some(slot.map_or(range, |cur| cur.max(range)));
            if *slot != before {
                changed.push((f, a));
            }
        }
    }

    /// True when the known extents of (field, age) have reached every
    /// expected (propagated) extent — guards against dispatching consumers
    /// of implicitly-sized fields on a transiently-complete prefix.
    fn extents_settled(&self, field: FieldId, age: Age, ext: &p2g_field::Extents) -> bool {
        match self.expected_extents.get(&(field.0, age.0)) {
            None => true,
            Some(exp) => exp
                .iter()
                .enumerate()
                .all(|(d, e)| e.is_none_or(|n| ext.dim(d) >= n)),
        }
    }

    /// The instance ages of kernel `k` whose fetches the stored (field,
    /// age) may satisfy.
    fn affected_ages(&self, kid: KernelId, field: FieldId, fa: Age) -> Vec<u64> {
        let k = self.spec.kernel(kid);
        let mut ages = Vec::new();
        for fe in &k.fetches {
            if fe.field != field {
                continue;
            }
            match fe.age {
                AgeExpr::Rel(t) => {
                    if !k.has_age_var {
                        // A rel expression degenerates to age 0 for
                        // age-less kernels.
                        if fa.0 as i64 == t {
                            ages.push(0);
                        }
                    } else if fa.0 as i64 >= t {
                        ages.push((fa.0 as i64 - t) as u64);
                    }
                }
                AgeExpr::Const(c) => {
                    if fa.0 != c {
                        continue;
                    }
                    if !k.has_age_var {
                        ages.push(0);
                    } else {
                        // A constant-age fetch can unblock any age whose
                        // *other* (relative) fetches already have data;
                        // derive candidates from those fields' view ages.
                        let mut any_rel = false;
                        for other in &k.fetches {
                            if let AgeExpr::Rel(t) = other.age {
                                any_rel = true;
                                for &ra in &self.view_ages[other.field.idx()] {
                                    if ra as i64 >= t {
                                        ages.push((ra as i64 - t) as u64);
                                    }
                                }
                            }
                        }
                        if !any_rel {
                            ages.push(0);
                        }
                    }
                }
            }
        }
        ages.sort_unstable();
        ages.dedup();
        ages
    }

    fn on_unit_done(
        &mut self,
        kernel: KernelId,
        age: Age,
        instances: usize,
        stored_any: bool,
        retried: bool,
        out: &mut Vec<DispatchUnit>,
    ) {
        // `instances` counts the *successes* of this execution; failed
        // instances complete either through their retry unit's UnitDone or
        // through poisoning.
        *self.completed.entry((kernel.0, age.0)).or_insert(0) += instances;
        // A unit with a pending retry is not finished: its retry unit
        // reports the final UnitDone, which drives sequencing and ordered
        // gating then.
        if retried {
            return;
        }
        let k = self.spec.kernel(kernel);
        // Source sequencing: schedule the next age after this one finished
        // and actually produced data ("the read loop ends when the kernel
        // stops storing to the next age").
        if k.is_source() && k.has_age_var && stored_any {
            let next = age.0 + 1;
            if self.age_allowed(k, next) && self.mark_dispatched(kernel, next, &[]) {
                self.emit(DispatchUnit::new(kernel, Age(next), vec![vec![]]), out);
            }
        }
        // Ordered gating: when the current age drains, advance and release
        // held units.
        if self.options[kernel.idx()].ordered {
            let outst = self.ordered_outstanding.entry(kernel.0).or_insert(0);
            *outst = outst.saturating_sub(1);
            if *outst == 0 {
                let next = self.ordered_next.entry(kernel.0).or_insert(0);
                *next = (*next).max(age.0 + 1);
            }
            self.advance_ordered(kernel, out);
        }
    }

    /// Release ordered-kernel work for the currently allowed age, and skip
    /// over finished ages (in particular ages whose instances were all
    /// poisoned — they are marked dispatched + completed without a unit
    /// ever running, so nothing else would advance the gate past them).
    fn advance_ordered(&mut self, kid: KernelId, out: &mut Vec<DispatchUnit>) {
        loop {
            if self.ordered_outstanding.get(&kid.0).copied().unwrap_or(0) > 0 {
                return;
            }
            let next = *self.ordered_next.entry(kid.0).or_insert(0);
            if let Some(units) = self
                .held
                .get_mut(&kid.0)
                .and_then(|per_age| per_age.remove(&next))
            {
                if !units.is_empty() {
                    for u in units {
                        *self.ordered_outstanding.entry(kid.0).or_insert(0) += 1;
                        out.push(u);
                    }
                    return;
                }
            }
            // Nothing held at the allowed age: advance past it only when
            // it is demonstrably finished (fully dispatched + completed).
            // Field ground truth may be missing for a poisoned age (its
            // inputs were never stored); fall back to known extents.
            let space = match self.instance_space(kid, next) {
                Some(s) => s,
                None => {
                    let k = self.spec.kernel(kid);
                    let mut s = 1usize;
                    let mut known = true;
                    for &(fi, dim) in &self.bindings[kid.idx()] {
                        let fe = &k.fetches[fi];
                        let fa = fe.age.resolve(Age(next));
                        match self.known_extent(fe.field, fa, dim) {
                            Some(r) => s *= r,
                            None => {
                                known = false;
                                break;
                            }
                        }
                    }
                    if !known {
                        return;
                    }
                    s
                }
            };
            let d = self.dispatched.get(&(kid.0, next)).map_or(0, |s| s.count());
            let c = *self.completed.get(&(kid.0, next)).unwrap_or(&0);
            if d >= space && c >= d {
                self.ordered_next.insert(kid.0, next + 1);
                continue;
            }
            return;
        }
    }

    /// Record an instance as dispatched; false when already dispatched.
    fn mark_dispatched(&mut self, kernel: KernelId, age: u64, indices: &[usize]) -> bool {
        let shape = Extents(indices.iter().map(|&i| i + 1).collect());
        let bm = self
            .dispatched
            .entry((kernel.0, age))
            .or_insert_with(|| ShapedBitmap::new(shape.clone()));
        bm.grow(&shape);
        bm.set(indices)
    }

    /// Route a unit to the output, respecting ordered gating.
    fn emit(&mut self, unit: DispatchUnit, out: &mut Vec<DispatchUnit>) {
        let kid = unit.kernel;
        if self.options[kid.idx()].ordered {
            let next = *self.ordered_next.entry(kid.0).or_insert(0);
            if unit.age.0 > next {
                self.held
                    .entry(kid.0)
                    .or_default()
                    .entry(unit.age.0)
                    .or_default()
                    .push(unit);
                return;
            }
            *self.ordered_outstanding.entry(kid.0).or_insert(0) += 1;
        }
        out.push(unit);
    }

    /// Size of kernel `kid`'s instance space at age `a`, when its binding
    /// extents are known and settled; `None` while undetermined.
    fn instance_space(&self, kid: KernelId, a: u64) -> Option<usize> {
        let k = self.spec.kernel(kid);
        if k.is_source() {
            return Some(1);
        }
        let mut space = 1usize;
        for &(fi, dim) in &self.bindings[kid.idx()] {
            let fe = &k.fetches[fi];
            let fa = fe.age.resolve(Age(a));
            let field = self.fields[fe.field.idx()].read();
            let ext = field.extents(fa)?.clone();
            drop(field);
            if !self.extents_settled(fe.field, fa, &ext) {
                return None;
            }
            space *= ext.dim(dim);
        }
        Some(space)
    }

    /// The smallest age of `kid` whose instances are not all dispatched and
    /// completed — no field age that `kid` still needs may be collected.
    /// `u64::MAX` when the kernel can never run again (age cap reached).
    fn kernel_safe_age(&mut self, kid: KernelId) -> u64 {
        let mut a = *self.gc_floor.get(&kid.0).unwrap_or(&0);
        loop {
            let k = self.spec.kernel(kid);
            if !self.age_allowed(k, a) {
                a = u64::MAX;
                break;
            }
            let Some(space) = self.instance_space(kid, a) else {
                break;
            };
            let d = self.dispatched.get(&(kid.0, a)).map_or(0, |s| s.count());
            let c = *self.completed.get(&(kid.0, a)).unwrap_or(&0);
            if d < space || c < d {
                break;
            }
            a += 1;
        }
        if a != u64::MAX {
            self.gc_floor.insert(kid.0, a);
        }
        a
    }

    /// Prune per-(kernel, age) accounting below each kernel's finished
    /// frontier. Every pruned age is fully dispatched *and* completed (the
    /// `gc_floor` invariant), so its UnitDone and Store events have all
    /// drained — nothing can reference the dropped entries again. The
    /// floor additionally respects ordered gating and age watches, whose
    /// frontiers read dispatch/completion counts at their own pace.
    fn prune_kernel_state(&mut self) {
        let nk = self.spec.kernels.len();
        let mut floors = Vec::with_capacity(nk);
        for k in 0..nk {
            let kid = k as u32;
            // kernel_safe_age (not the bare cache): source kernels are
            // nobody's consumer, so gc_limit never advances their floor.
            let mut f = self.kernel_safe_age(KernelId(kid));
            if self.options[k].ordered {
                f = f.min(*self.ordered_next.get(&kid).unwrap_or(&0));
            }
            for w in &self.watches {
                if w.kernel.idx() == k {
                    f = f.min(w.frontier);
                }
            }
            floors.push(f);
        }
        self.tables.retain(|&(k, a), _| a >= floors[k as usize]);
        for (k, ages) in self.table_ages.iter_mut().enumerate() {
            let f = floors[k];
            ages.retain(|&a| a >= f);
        }
        self.dispatched.retain(|&(k, a), _| a >= floors[k as usize]);
        self.completed.retain(|&(k, a), _| a >= floors[k as usize]);
        self.poisoned_instances
            .retain(|&(k, a), _| a >= floors[k as usize]);
    }

    /// The exclusive upper bound of collectible ages for `field`:
    /// the window bound, clamped so no (current or future) consumer
    /// instance can still fetch a collected age. Constant-age fetches pin
    /// their age forever (the k-means `datapoints(0)` pattern).
    fn gc_limit(&mut self, field: FieldId, window_bound: u64) -> u64 {
        let mut limit = window_bound;
        let consumer_ids = self.consumers[field.idx()].clone();
        for kid in consumer_ids {
            // Fused consumers read the producer's staged buffer, never the
            // field itself.
            if self.fused_consumers.contains(&kid) {
                continue;
            }
            let fetch_ages: Vec<crate::AgeExprCopy> = self
                .spec
                .kernel(kid)
                .fetches
                .iter()
                .filter(|fe| fe.field == field)
                .map(|fe| match fe.age {
                    AgeExpr::Rel(t) => crate::AgeExprCopy::Rel(t),
                    AgeExpr::Const(c) => crate::AgeExprCopy::Const(c),
                })
                .collect();
            for fa in fetch_ages {
                match fa {
                    crate::AgeExprCopy::Rel(t) => {
                        let safe = self.kernel_safe_age(kid);
                        limit = limit.min(safe.saturating_add(t.max(0) as u64));
                    }
                    crate::AgeExprCopy::Const(c) => {
                        limit = limit.min(c);
                    }
                }
            }
        }
        limit
    }
}

#[inline]
fn vkey_of(se: &StoreEvent) -> (u32, u64) {
    (se.field.0, se.age.0)
}

/// Pin index variable `v` to `c` in `pins`; false when the fetch already
/// pinned it to another value (a variable named twice, as in a diagonal
/// fetch `[X, X]`, only reads elements whose coordinates agree).
fn pin(pins: &mut [Option<usize>], v: usize, c: usize) -> bool {
    *pins[v].get_or_insert(c) == c
}

/// Decrement by `amount` every counter in the instance rectangle `pins`
/// selects (Some pins a variable, None spans its range), invoking
/// `on_zero` with the table linear index of each counter that reaches
/// zero. `cursor` is scratch of one slot per variable. Rectangles with a
/// pinned value outside the table's ranges are skipped entirely — those
/// instances don't exist yet, and when the table grows they are
/// initialized from the views (which already account the elements).
fn decrement_rectangle(
    table: &mut PendingTable,
    pins: &[Option<usize>],
    cursor: &mut [usize],
    amount: u32,
    mut on_zero: impl FnMut(usize),
) {
    debug_assert_eq!(pins.len(), table.ranges.ndim());
    for (v, p) in pins.iter().enumerate() {
        match *p {
            Some(c) if c >= table.ranges.dim(v) => return,
            Some(c) => cursor[v] = c,
            None => cursor[v] = 0,
        }
    }
    loop {
        let lin = table
            .ranges
            .linearize(cursor)
            .expect("rectangle coordinate within table ranges");
        let slot = &mut table.remaining[lin];
        debug_assert!(
            *slot >= amount,
            "counter underflow: element decremented twice"
        );
        *slot = slot.saturating_sub(amount);
        if *slot == 0 {
            on_zero(lin);
        }
        // Advance over the free variables only.
        let mut v = pins.len();
        loop {
            if v == 0 {
                return;
            }
            v -= 1;
            if pins[v].is_some() {
                continue;
            }
            cursor[v] += 1;
            if cursor[v] < table.ranges.dim(v) {
                break;
            }
            cursor[v] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::StoreEvent;
    use p2g_field::{Buffer, FieldDef, Region};
    use p2g_graph::spec::mul_sum_example;

    impl DependencyAnalyzer {
        /// Total instances dispatched for a kernel.
        fn dispatched_count(&self, kid: KernelId) -> usize {
            self.dispatched
                .iter()
                .filter(|&(&(k, _), _)| k == kid.0)
                .map(|(_, s)| s.count())
                .sum()
        }
    }

    fn setup() -> (DependencyAnalyzer, SharedFields, Arc<ProgramSpec>) {
        let spec = Arc::new(mul_sum_example());
        let fields: SharedFields = Arc::new(
            spec.fields
                .iter()
                .enumerate()
                .map(|(i, d)| RwLock::new(Field::new(p2g_field::FieldId(i as u32), d.clone())))
                .collect(),
        );
        let options = vec![KernelOptions::default(); spec.kernels.len()];
        let an = DependencyAnalyzer::new(
            spec.clone(),
            options,
            HashSet::new(),
            fields.clone(),
            RunLimits::ages(3),
        );
        (an, fields, spec)
    }

    fn store_whole(fields: &SharedFields, fid: usize, age: u64, data: Vec<i32>) -> StoreEvent {
        let mut field = fields[fid].write();
        let out = field
            .store(Age(age), &Region::all(1), &Buffer::from_vec(data))
            .unwrap();
        let extents = field.extents(Age(age)).cloned().unwrap();
        let region = Region::all(extents.ndim()).resolved_against(&extents);
        StoreEvent {
            field: p2g_field::FieldId(fid as u32),
            age: Age(age),
            region,
            extents,
            elements: out.stored,
            age_complete: out.age_complete,
            resized: out.resized,
            inline_dispatched: None,
        }
    }

    #[test]
    fn seed_emits_sources_once() {
        let (mut an, _, spec) = setup();
        let units = an.seed();
        assert_eq!(units.len(), 1);
        assert_eq!(units[0].kernel, spec.kernel_by_name("init").unwrap());
        // Seeding again emits nothing (already dispatched).
        assert!(an.seed().is_empty());
    }

    #[test]
    fn store_unblocks_element_consumers() {
        let (mut an, fields, spec) = setup();
        an.seed();
        // init stores m_data(0) fully: mul2 gets 5 instances, print still
        // blocked (needs p_data too).
        let ev = store_whole(&fields, 0, 0, vec![10, 11, 12, 13, 14]);
        let units = an.on_event(&Event::Store(ev)).unwrap();
        let mul2 = spec.kernel_by_name("mul2").unwrap();
        assert_eq!(units.len(), 5);
        assert!(units.iter().all(|u| u.kernel == mul2));
        let mut xs: Vec<usize> = units.iter().map(|u| u.instances[0][0]).collect();
        xs.sort_unstable();
        assert_eq!(xs, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn print_unblocks_when_both_fields_complete() {
        let (mut an, fields, spec) = setup();
        an.seed();
        let ev = store_whole(&fields, 0, 0, vec![1, 2, 3]);
        an.on_event(&Event::Store(ev)).unwrap();
        let ev = store_whole(&fields, 1, 0, vec![2, 4, 6]);
        let units = an.on_event(&Event::Store(ev)).unwrap();
        let print = spec.kernel_by_name("print").unwrap();
        assert!(units.iter().any(|u| u.kernel == print));
    }

    #[test]
    fn no_duplicate_dispatch() {
        let (mut an, fields, spec) = setup();
        an.seed();
        let ev = store_whole(&fields, 0, 0, vec![1, 2, 3]);
        let first = an.on_event(&Event::Store(ev.clone())).unwrap();
        assert_eq!(first.len(), 3);
        // Replay of the same event produces nothing new.
        let second = an.on_event(&Event::Store(ev)).unwrap();
        assert!(second.is_empty());
        let mul2 = spec.kernel_by_name("mul2").unwrap();
        assert_eq!(an.dispatched_count(mul2), 3);
    }

    #[test]
    fn max_ages_caps_instances() {
        let (mut an, fields, _) = setup();
        an.seed();
        // Ages 0..3 allowed (max_ages = 3); age 3 store must not generate
        // mul2 instances at age 3.
        for age in 0..4 {
            let ev = store_whole(&fields, 0, age, vec![1]);
            let units = an.on_event(&Event::Store(ev)).unwrap();
            if age < 3 {
                assert!(!units.is_empty(), "age {age} should dispatch");
            } else {
                assert!(units.is_empty(), "age {age} is beyond max_ages");
            }
        }
    }

    #[test]
    fn source_sequencing_follows_stored_any() {
        // A source kernel with an age variable re-arms only when the prior
        // instance stored data.
        let mut spec = ProgramSpec::new();
        let out_f = spec.add_field(FieldDef::new("frames", p2g_field::ScalarType::I32, 1));
        spec.add_kernel(p2g_graph::spec::KernelSpec {
            id: KernelId(0),
            name: "read".into(),
            index_vars: 0,
            has_age_var: true,
            fetches: vec![],
            stores: vec![p2g_graph::spec::StoreDecl {
                field: out_f,
                age: AgeExpr::Rel(0),
                dims: vec![IndexSel::All],
            }],
        });
        let spec = Arc::new(spec);
        let fields: SharedFields = Arc::new(
            spec.fields
                .iter()
                .enumerate()
                .map(|(i, d)| RwLock::new(Field::new(p2g_field::FieldId(i as u32), d.clone())))
                .collect(),
        );
        let mut an = DependencyAnalyzer::new(
            spec.clone(),
            vec![KernelOptions::default()],
            HashSet::new(),
            fields,
            RunLimits::unbounded(),
        );
        let units = an.seed();
        assert_eq!(units.len(), 1);
        // Completing with data: next age dispatched.
        let units = an
            .on_event(&Event::UnitDone {
                kernel: KernelId(0),
                age: Age(0),
                instances: 1,
                stored_any: true,
                retried: false,
            })
            .unwrap();
        assert_eq!(units.len(), 1);
        assert_eq!(units[0].age, Age(1));
        // Completing without data (EOF): stream ends.
        let units = an
            .on_event(&Event::UnitDone {
                kernel: KernelId(0),
                age: Age(1),
                instances: 1,
                stored_any: false,
                retried: false,
            })
            .unwrap();
        assert!(units.is_empty());
    }

    #[test]
    fn ordered_kernel_releases_in_age_order() {
        let (mut an, fields, spec) = setup();
        let print = spec.kernel_by_name("print").unwrap();
        an.options[print.idx()].ordered = true;
        an.seed();

        // Complete age 0 and age 1 data for both fields, but deliver age 1
        // completions first — print(1) must be held until print(0) is done.
        for age in [1u64, 0] {
            let ev = store_whole(&fields, 0, age, vec![1, 2]);
            an.on_event(&Event::Store(ev)).unwrap();
        }
        let mut print_units = Vec::new();
        for age in [1u64, 0] {
            let ev = store_whole(&fields, 1, age, vec![2, 4]);
            print_units.extend(
                an.on_event(&Event::Store(ev))
                    .unwrap()
                    .into_iter()
                    .filter(|u| u.kernel == print),
            );
        }
        // Only age 0 released so far.
        assert_eq!(print_units.len(), 1);
        assert_eq!(print_units[0].age, Age(0));
        // Completing age 0 releases age 1.
        let released = an
            .on_event(&Event::UnitDone {
                kernel: print,
                age: Age(0),
                instances: 1,
                stored_any: false,
                retried: false,
            })
            .unwrap();
        assert_eq!(released.len(), 1);
        assert_eq!(released[0].age, Age(1));
    }

    #[test]
    fn chunking_merges_instances() {
        let (mut an, fields, spec) = setup();
        let mul2 = spec.kernel_by_name("mul2").unwrap();
        an.options[mul2.idx()].chunk_size = 5;
        an.seed();
        let ev = store_whole(&fields, 0, 0, vec![1, 2, 3, 4, 5]);
        let units: Vec<_> = an
            .on_event(&Event::Store(ev))
            .unwrap()
            .into_iter()
            .filter(|u| u.kernel == mul2)
            .collect();
        assert_eq!(units.len(), 1);
        assert_eq!(units[0].len(), 5);
    }

    #[test]
    fn element_stores_dispatch_incrementally() {
        // One-element stores unlock exactly the matching instance, without
        // rescanning the space — the delta path the K-means storm relies
        // on.
        let (mut an, fields, spec) = setup();
        an.seed();
        let mul2 = spec.kernel_by_name("mul2").unwrap();
        // Pre-size the age with a first element so extents are known.
        for x in 0..4usize {
            let ev = {
                let mut field = fields[0].write();
                let region = Region(vec![p2g_field::DimSel::Range { start: x, len: 1 }]);
                let out = field
                    .store(Age(0), &region, &Buffer::from_vec(vec![x as i32]))
                    .unwrap();
                let extents = field.extents(Age(0)).cloned().unwrap();
                StoreEvent {
                    field: p2g_field::FieldId(0),
                    age: Age(0),
                    region: region.resolved_against(&extents),
                    extents,
                    elements: out.stored,
                    age_complete: out.age_complete,
                    resized: out.resized,
                    inline_dispatched: None,
                }
            };
            let units: Vec<_> = an
                .on_event(&Event::Store(ev))
                .unwrap()
                .into_iter()
                .filter(|u| u.kernel == mul2)
                .collect();
            // Implicit sizing grows the field one element at a time; every
            // store unlocks exactly the new instance.
            assert_eq!(units.len(), 1, "store {x} should unlock one instance");
            assert_eq!(units[0].instances, vec![vec![x]]);
        }
        assert_eq!(an.dispatched_count(mul2), 4);
    }

    #[test]
    fn gc_respects_lagging_consumers() {
        // Consumers that have not completed pin their ages: storing far
        // ahead must not collect ages whose consumer instances are still
        // outstanding.
        let (mut an, fields, _) = setup();
        an.limits = RunLimits::ages(10).with_gc_window(1);
        an.seed();
        for age in 0..4 {
            let ev = store_whole(&fields, 0, age, vec![1]);
            an.on_event(&Event::Store(ev)).unwrap();
        }
        // mul2 instances were dispatched but never completed; print never
        // became runnable. Nothing may be collected.
        let resident: Vec<u64> = fields[0].read().resident_ages().map(|a| a.0).collect();
        assert_eq!(resident, vec![0, 1, 2, 3]);
    }

    #[test]
    fn gc_collects_behind_completed_consumers() {
        // A private pipeline (source → sink) where the sink completes each
        // age: old ages fall to the window GC.
        let mut spec = ProgramSpec::new();
        let f = spec.add_field(p2g_field::FieldDef::new(
            "stream",
            p2g_field::ScalarType::I32,
            1,
        ));
        spec.add_kernel(p2g_graph::spec::KernelSpec {
            id: KernelId(0),
            name: "src".into(),
            index_vars: 0,
            has_age_var: true,
            fetches: vec![],
            stores: vec![p2g_graph::spec::StoreDecl {
                field: f,
                age: AgeExpr::Rel(0),
                dims: vec![IndexSel::All],
            }],
        });
        spec.add_kernel(p2g_graph::spec::KernelSpec {
            id: KernelId(0),
            name: "sink".into(),
            index_vars: 0,
            has_age_var: true,
            fetches: vec![p2g_graph::spec::FetchDecl {
                field: f,
                age: AgeExpr::Rel(0),
                dims: vec![IndexSel::All],
            }],
            stores: vec![],
        });
        let spec = Arc::new(spec);
        let fields: SharedFields = Arc::new(
            spec.fields
                .iter()
                .enumerate()
                .map(|(i, d)| RwLock::new(Field::new(p2g_field::FieldId(i as u32), d.clone())))
                .collect(),
        );
        let mut an = DependencyAnalyzer::new(
            spec.clone(),
            vec![KernelOptions::default(); 2],
            HashSet::new(),
            fields.clone(),
            RunLimits::ages(20).with_gc_window(2),
        );
        an.seed();
        let sink = spec.kernel_by_name("sink").unwrap();
        for age in 0..8u64 {
            let ev = store_whole(&fields, 0, age, vec![1, 2]);
            let units = an.on_event(&Event::Store(ev)).unwrap();
            // Complete the sink instance for this age immediately.
            for u in units.iter().filter(|u| u.kernel == sink) {
                an.on_event(&Event::UnitDone {
                    kernel: sink,
                    age: u.age,
                    instances: u.len(),
                    stored_any: false,
                    retried: false,
                })
                .unwrap();
            }
        }
        // Window 2 behind age 7, consumers fully caught up → ages < 5
        // collected.
        let resident: Vec<u64> = fields[0].read().resident_ages().map(|a| a.0).collect();
        assert_eq!(resident, vec![5, 6, 7]);
    }

    #[test]
    fn gc_never_collects_const_fetched_ages() {
        // The k-means pattern: datapoints(0) is fetched at a constant age
        // by every iteration and must survive any window.
        let mut spec = ProgramSpec::new();
        let f_const = spec.add_field(p2g_field::FieldDef::new(
            "points",
            p2g_field::ScalarType::I32,
            1,
        ));
        let f_aged = spec.add_field(p2g_field::FieldDef::new(
            "state",
            p2g_field::ScalarType::I32,
            1,
        ));
        spec.add_kernel(p2g_graph::spec::KernelSpec {
            id: KernelId(0),
            name: "step".into(),
            index_vars: 0,
            has_age_var: true,
            fetches: vec![
                p2g_graph::spec::FetchDecl {
                    field: f_const,
                    age: AgeExpr::Const(0),
                    dims: vec![IndexSel::All],
                },
                p2g_graph::spec::FetchDecl {
                    field: f_aged,
                    age: AgeExpr::Rel(0),
                    dims: vec![IndexSel::All],
                },
            ],
            stores: vec![],
        });
        let spec = Arc::new(spec);
        let fields: SharedFields = Arc::new(
            spec.fields
                .iter()
                .enumerate()
                .map(|(i, d)| RwLock::new(Field::new(p2g_field::FieldId(i as u32), d.clone())))
                .collect(),
        );
        let mut an = DependencyAnalyzer::new(
            spec.clone(),
            vec![KernelOptions::default(); spec.kernels.len()],
            HashSet::new(),
            fields.clone(),
            RunLimits::ages(50).with_gc_window(1),
        );
        an.seed();
        // Store the const field at age 0, then push the aged field far
        // ahead; age 0 of the const field must survive.
        let ev = store_whole(&fields, 0, 0, vec![1, 2, 3]);
        an.on_event(&Event::Store(ev)).unwrap();
        for age in 0..6 {
            let ev = store_whole(&fields, 1, age, vec![9]);
            let units = an.on_event(&Event::Store(ev)).unwrap();
            for u in units {
                let (k, a, n) = (u.kernel, u.age, u.len());
                an.on_event(&Event::UnitDone {
                    kernel: k,
                    age: a,
                    instances: n,
                    stored_any: false,
                    retried: false,
                })
                .unwrap();
            }
        }
        assert!(
            fields[0].read().is_complete(Age(0)),
            "const-fetched field must never be collected"
        );
    }
}
