//! Sharded dependency analysis: the routing plan and shared GC frontiers.
//!
//! A single analyzer is a one-shard analyzer. The node runs
//! `RunLimits::shards = N` analyzer threads (one by default), each owning a
//! disjoint slice of the `(kernel, age)` instance space. The shard
//! key is age-based: an unpinned kernel's age `a` belongs to shard
//! `a % N`, so every store event of a streaming pipeline lands on exactly
//! one shard while consecutive ages analyze in parallel. Kernels whose
//! per-age state cannot be split — sources (self-sequencing), `ordered`
//! kernels (one `ordered_next` cursor), age-watched kernels (callbacks must
//! fire in age order), age-less kernels, and fused consumers — are *pinned*:
//! every age of a pinned kernel lives on its home shard `kernel % N`. A
//! one-shard plan pins every kernel to shard 0, so each event routes to
//! exactly one copy through index lookups alone.
//!
//! A store event is routed to exactly the shards that own a consumer
//! instance it can affect: `Rel(t)` consumers map store age `a` to instance
//! age `a - t` (one shard), pinned consumers map to their home shard, and a
//! store at a `Const(c)` fetch age affects every age of the consumer, so it
//! broadcasts. Each delivered copy is separately counted in the node's
//! outstanding-work counter, so quiescence detection is unchanged.
//!
//! Cross-shard coordination is deliberately tiny:
//! * **Expected extents** ([`crate::events::Event::ShardExpect`]): a shard
//!   that learns a new extents lower bound broadcasts it *before*
//!   dispatching the units derived from the same event, so (per-shard FIFO
//!   channels) the expectation always arrives ahead of any store produced
//!   under it — settledness gates can never open early.
//! * **GC frontiers** ([`ShardGc`]): each shard publishes its per-kernel
//!   safe age over the ages it owns into a shared atomic slot; the global
//!   frontier is the min over shards. Field retirement is claimed with a
//!   `fetch_max` on a shared per-field floor, so exactly one shard collects
//!   each age while every shard prunes its local state as it observes the
//!   floor advance.
//! * **Poison**: `KernelFailure` events broadcast; every shard runs the
//!   same deterministic transitive traversal (poison sets are replicated),
//!   but the side effects — completion accounting, drain reporting, source
//!   re-arming, ordered advance — fire only on the owning shard.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};

use p2g_field::FieldId;
use p2g_graph::spec::AgeExpr;
use p2g_graph::{KernelId, ProgramSpec};

use crate::options::KernelOptions;

/// One routing rule for stores into a field, derived from a consumer fetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RouteRule {
    /// Pinned consumer: all its ages live on this home shard.
    Home(usize),
    /// `Rel(t)` fetch of an unpinned consumer: store age `a` affects
    /// instance age `a - t` → shard `(a - t) % N`.
    Rel(i64),
    /// `Const(c)` fetch of an unpinned consumer: a store at age `c`
    /// affects every instance age → broadcast.
    ConstAge(u64),
}

/// The static shard-routing plan: which shard owns each `(kernel, age)`
/// and which shards must observe each store event.
#[derive(Debug)]
pub struct ShardPlan {
    shards: usize,
    /// Per kernel: true when every age of the kernel lives on `home`.
    pinned: Vec<bool>,
    /// Per kernel: the home shard (`kernel % N`).
    home: Vec<usize>,
    /// Per field: routing rules derived from its non-fused consumers.
    routes: Vec<Vec<RouteRule>>,
}

impl ShardPlan {
    /// Build the plan for `spec` under `options`. `fused` are consumer
    /// kernels run inline by their producer; `watched` carry analyzer age
    /// watches. Both are pinned to their home shard, as is every kernel
    /// of a one-shard plan.
    pub fn new(
        spec: &ProgramSpec,
        options: &[KernelOptions],
        fused: &HashSet<KernelId>,
        watched: &HashSet<KernelId>,
        shards: usize,
    ) -> ShardPlan {
        let shards = shards.max(1);
        let nk = spec.kernels.len();
        let mut pinned = vec![false; nk];
        let mut home = vec![0usize; nk];
        for (i, k) in spec.kernels.iter().enumerate() {
            home[i] = i % shards;
            pinned[i] = shards == 1
                || k.is_source()
                || !k.has_age_var
                || options[i].ordered
                || watched.contains(&k.id)
                || fused.contains(&k.id);
        }
        let mut routes: Vec<Vec<RouteRule>> = vec![Vec::new(); spec.fields.len()];
        for (i, k) in spec.kernels.iter().enumerate() {
            if fused.contains(&k.id) {
                continue; // analyzed inline by the producer, never routed
            }
            for fe in &k.fetches {
                let rule = if pinned[i] {
                    RouteRule::Home(home[i])
                } else {
                    match fe.age {
                        AgeExpr::Rel(t) => RouteRule::Rel(t),
                        AgeExpr::Const(c) => RouteRule::ConstAge(c),
                    }
                };
                let slot = &mut routes[fe.field.idx()];
                if !slot.contains(&rule) {
                    slot.push(rule);
                }
            }
        }
        // Consumer-less fields still need one shard to run their GC
        // bookkeeping (view creation + retirement).
        for (f, slot) in routes.iter_mut().enumerate() {
            if slot.is_empty() {
                slot.push(RouteRule::Home(f % shards));
            }
        }
        ShardPlan {
            shards,
            pinned,
            home,
            routes,
        }
    }

    /// Number of shards in the plan.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// True when `shard` owns instance `(kernel, age)` — the shard that
    /// dispatches, completes and GC-accounts it.
    pub(crate) fn owns(&self, kernel: KernelId, age: u64, shard: usize) -> bool {
        let k = kernel.idx();
        if self.pinned[k] {
            self.home[k] == shard
        } else {
            (age as usize) % self.shards == shard
        }
    }

    /// True when every age of `kernel` lives on its home shard.
    pub(crate) fn is_pinned(&self, kernel: KernelId) -> bool {
        self.pinned[kernel.idx()]
    }

    /// The shard owning a `(kernel, age)` instance.
    pub(crate) fn unit_owner(&self, kernel: KernelId, age: u64) -> usize {
        let k = kernel.idx();
        if self.pinned[k] {
            self.home[k]
        } else {
            (age as usize) % self.shards
        }
    }

    /// Bitmask selecting every shard of the plan.
    pub(crate) fn all_mask(&self) -> u64 {
        if self.shards >= 64 {
            u64::MAX
        } else {
            (1u64 << self.shards) - 1
        }
    }

    /// Destination shards for a store into `field` at `age`, as a bitmask
    /// (bit s ⇒ deliver to shard s). Plans are capped at 64 shards.
    pub fn store_dests(&self, field: FieldId, age: u64) -> u64 {
        let all = self.all_mask();
        let mut mask = 0u64;
        for rule in &self.routes[field.idx()] {
            match *rule {
                RouteRule::Home(s) => mask |= 1u64 << s,
                RouteRule::Rel(t) => {
                    // Store age `a` feeds instance age `a - t`; ages the
                    // consumer can never reach (a < t) route nowhere.
                    if t >= 0 {
                        if age >= t as u64 {
                            mask |= 1u64 << ((age - t as u64) as usize % self.shards);
                        }
                    } else {
                        mask |= 1u64 << ((age + (-t) as u64) as usize % self.shards);
                    }
                }
                RouteRule::ConstAge(c) => {
                    if age == c {
                        return all;
                    }
                }
            }
            if mask == all {
                return all;
            }
        }
        mask
    }
}

/// Shared GC frontier state of a node's analyzer shards.
///
/// * `kernel_frontier[k * shards + s]`: shard s's published safe age for
///   kernel k — every owned age below it is demonstrably finished. The
///   global safe age is the min over shards (a shard skips ages it does
///   not own, so each age below the min is vouched for by its owner).
/// * `field_retired[f]`: the retire floor of field f, advanced with
///   `fetch_max` by whichever shard first derives a higher limit — that
///   shard collects the slabs; every shard prunes its local state when it
///   observes the floor above its own.
pub struct ShardGc {
    shards: usize,
    kernel_frontier: Vec<AtomicU64>,
    field_retired: Vec<AtomicU64>,
}

impl ShardGc {
    /// Zeroed frontiers for `kernels` kernels, `fields` fields, `shards`
    /// shards.
    pub fn new(kernels: usize, fields: usize, shards: usize) -> ShardGc {
        ShardGc {
            shards,
            kernel_frontier: (0..kernels * shards).map(|_| AtomicU64::new(0)).collect(),
            field_retired: (0..fields).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Publish shard `s`'s safe age for `kernel`.
    pub(crate) fn publish_kernel_frontier(&self, kernel: KernelId, s: usize, age: u64) {
        self.kernel_frontier[kernel.idx() * self.shards + s].store(age, Ordering::Release);
    }

    /// Global safe age for `kernel`: min over every shard's published slot.
    pub(crate) fn kernel_frontier(&self, kernel: KernelId) -> u64 {
        let base = kernel.idx() * self.shards;
        (0..self.shards)
            .map(|s| self.kernel_frontier[base + s].load(Ordering::Acquire))
            .min()
            .unwrap_or(0)
    }

    /// Try to advance `field`'s retire floor to `limit`. Returns the floor
    /// before the call; the caller collects iff it was below `limit`.
    pub(crate) fn claim_retire(&self, field: FieldId, limit: u64) -> u64 {
        self.field_retired[field.idx()].fetch_max(limit, Ordering::AcqRel)
    }

    /// The field's current retire floor.
    pub(crate) fn retire_floor(&self, field: FieldId) -> u64 {
        self.field_retired[field.idx()].load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2g_graph::spec::mul_sum_example;

    fn plan(shards: usize) -> ShardPlan {
        let spec = mul_sum_example();
        let options = vec![KernelOptions::default(); spec.kernels.len()];
        ShardPlan::new(
            &spec,
            &options,
            &HashSet::new(),
            &HashSet::new(),
            shards,
        )
    }

    #[test]
    fn ownership_partitions_every_age() {
        let p = plan(4);
        let spec = mul_sum_example();
        for k in 0..spec.kernels.len() {
            for age in 0..32u64 {
                let owners: Vec<usize> = (0..4)
                    .filter(|&s| p.owns(KernelId(k as u32), age, s))
                    .collect();
                assert_eq!(owners.len(), 1, "kernel {k} age {age}");
                assert_eq!(owners[0], p.unit_owner(KernelId(k as u32), age));
            }
        }
    }

    #[test]
    fn sources_and_ageless_kernels_are_pinned() {
        let p = plan(4);
        let spec = mul_sum_example();
        for (i, k) in spec.kernels.iter().enumerate() {
            if k.is_source() || !k.has_age_var {
                assert!(p.is_pinned(k.id), "kernel {i} should be pinned");
            }
        }
    }

    #[test]
    fn store_dests_cover_unit_owners() {
        // Every shard that owns a consumer instance affected by a store
        // must be in the store's destination mask.
        let p = plan(4);
        let spec = mul_sum_example();
        for f in 0..spec.fields.len() {
            for age in 0..16u64 {
                let mask = p.store_dests(FieldId(f as u32), age);
                for k in &spec.kernels {
                    for fe in &k.fetches {
                        if fe.field.idx() != f {
                            continue;
                        }
                        let instance_ages: Vec<u64> = match fe.age {
                            AgeExpr::Rel(t) => {
                                if !k.has_age_var {
                                    if age == t.max(0) as u64 {
                                        vec![0]
                                    } else {
                                        vec![]
                                    }
                                } else if t >= 0 && age >= t as u64 {
                                    vec![age - t as u64]
                                } else if t < 0 {
                                    vec![age + (-t) as u64]
                                } else {
                                    vec![]
                                }
                            }
                            AgeExpr::Const(c) if age == c => (0..16u64).collect(),
                            AgeExpr::Const(_) => vec![],
                        };
                        for ia in instance_ages {
                            let owner = p.unit_owner(k.id, ia);
                            assert!(
                                mask & (1 << owner) != 0,
                                "field {f} age {age} misses owner {owner} of {} @{ia}",
                                k.name
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn single_shard_routes_everything_to_zero() {
        let p = plan(1);
        let spec = mul_sum_example();
        for f in 0..spec.fields.len() {
            for age in 0..8u64 {
                assert_eq!(p.store_dests(FieldId(f as u32), age), 1);
            }
        }
        for k in &spec.kernels {
            assert_eq!(p.unit_owner(k.id, 3), 0);
            assert!(p.is_pinned(k.id) && p.owns(k.id, 3, 0));
        }
        assert_eq!(p.all_mask(), 1);
    }

    #[test]
    fn shard_gc_frontier_is_min_over_shards() {
        let gc = ShardGc::new(2, 1, 3);
        gc.publish_kernel_frontier(KernelId(0), 0, 7);
        gc.publish_kernel_frontier(KernelId(0), 1, 4);
        gc.publish_kernel_frontier(KernelId(0), 2, u64::MAX);
        assert_eq!(gc.kernel_frontier(KernelId(0)), 4);
        assert_eq!(gc.kernel_frontier(KernelId(1)), 0);
        assert_eq!(gc.claim_retire(FieldId(0), 5), 0);
        assert_eq!(gc.claim_retire(FieldId(0), 3), 5);
        assert_eq!(gc.retire_floor(FieldId(0)), 5);
    }
}
