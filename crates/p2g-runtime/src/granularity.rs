//! Online data-granularity adaptation — the dynamic counterpart of the
//! paper's Figure-4 chunking decision.
//!
//! The paper's low-level scheduler picks a data granularity per kernel once
//! (our static [`crate::KernelOptions::chunk_size`]); this module closes
//! the loop instead. A `GranularityController` lives on the analyzer
//! thread and periodically differentiates each kernel's live instrument
//! counters (`crate::Instruments::kernel_raw` and the per-kernel latency
//! histograms): while the per-instance dispatch-overhead fraction stays
//! above a threshold it doubles the kernel's chunk size (multiplicative
//! increase — dispatch cost is being wasted on sub-microsecond bodies),
//! and when the estimated per-unit latency (`p95 instance latency ×
//! chunk`) threatens the configured deadline budget it halves it
//! (backoff). Every decision is recorded as a
//! [`crate::trace::TraceEvent::GranularityChange`] so
//! [`crate::trace_check`] can assert the controller behaved sanely.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use p2g_graph::KernelId;

use crate::instrument::Instruments;
use crate::options::{AdaptiveGranularity, KernelOptions};

/// One controller decision, for tracing and testing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct GranularityChangeInfo {
    pub kernel: KernelId,
    pub from: usize,
    pub to: usize,
    /// Dispatch-overhead fraction observed over the interval, in ppm
    /// (integer so the info stays `Eq`; divide by 1e6 for the fraction).
    pub overhead_ppm: u64,
    /// p95 per-instance body latency observed over the run so far.
    pub p95_ns: u64,
}

/// Per-interval differentiation state for one kernel.
#[derive(Debug, Clone, Copy, Default)]
struct KernelWindow {
    instances: u64,
    dispatch_ns: u64,
    kernel_ns: u64,
}

#[derive(Debug)]
struct TickState {
    last_tick: Option<Instant>,
    prev: Vec<KernelWindow>,
}

/// The online chunk-size controller. One per run, ticked by the analyzer
/// thread and read lock-free by whichever thread chunks runnable instances
/// into dispatch units.
#[derive(Debug)]
pub(crate) struct GranularityController {
    cfg: AdaptiveGranularity,
    /// Current chunk-size target per kernel (indexed by `KernelId::idx`).
    targets: Vec<AtomicUsize>,
    /// Whether each kernel participates in adaptation; non-adaptive
    /// kernels keep their static chunk size.
    adaptive: Vec<bool>,
    state: parking_lot::Mutex<TickState>,
}

impl GranularityController {
    /// Build a controller for a program's kernels. `adaptive[k]` marks the
    /// kernels whose chunk size the controller may change (data-parallel,
    /// unordered, not fusion-coupled); targets start at each kernel's
    /// static `chunk_size`.
    pub fn new(cfg: AdaptiveGranularity, options: &[KernelOptions], adaptive: Vec<bool>) -> Self {
        assert_eq!(options.len(), adaptive.len());
        let targets = options
            .iter()
            .map(|o| AtomicUsize::new(o.chunk_size.clamp(cfg.min_chunk, cfg.max_chunk)))
            .collect();
        GranularityController {
            cfg,
            targets,
            adaptive,
            state: parking_lot::Mutex::new(TickState {
                last_tick: None,
                prev: vec![KernelWindow::default(); options.len()],
            }),
        }
    }

    /// The chunk size the analyzer should use for `kernel` right now.
    /// Returns 0 for non-adaptive kernels, meaning "use the static
    /// number".
    pub(crate) fn chunk_for(&self, kernel: KernelId) -> usize {
        if !self.adaptive[kernel.idx()] {
            return 0;
        }
        self.targets[kernel.idx()].load(Ordering::Relaxed)
    }

    /// Run one controller tick against the live instruments. Interval-
    /// gated internally; cheap to call every analyzer-loop iteration.
    /// Returns the decisions made (empty between intervals).
    pub(crate) fn tick(&self, ins: &Instruments) -> Vec<GranularityChangeInfo> {
        let mut st = self.state.lock();
        let now = Instant::now();
        match st.last_tick {
            Some(t) if now.duration_since(t) < self.cfg.interval => return Vec::new(),
            _ => st.last_tick = Some(now),
        }
        let mut changes = Vec::new();
        for k in 0..self.targets.len() {
            let kid = KernelId(k as u32);
            let (instances, _units, dispatch_ns, kernel_ns) = ins.kernel_raw(kid);
            let win = KernelWindow {
                instances,
                dispatch_ns,
                kernel_ns,
            };
            let prev = std::mem::replace(&mut st.prev[k], win);
            if !self.adaptive[k] {
                continue;
            }
            let d_inst = instances.saturating_sub(prev.instances);
            if d_inst < self.cfg.min_samples {
                continue;
            }
            let d_dispatch = dispatch_ns.saturating_sub(prev.dispatch_ns);
            let d_kernel = kernel_ns.saturating_sub(prev.kernel_ns);
            let total = d_dispatch + d_kernel;
            if total == 0 {
                continue;
            }
            let overhead = d_dispatch as f64 / total as f64;
            let p95 = ins.latency_histogram(kid).p95();
            let cur = self.targets[k].load(Ordering::Relaxed);
            let over_budget = self
                .cfg
                .p95_budget
                .is_some_and(|b| p95.saturating_mul(cur as u32) > b);
            // Moves are exact factor-of-two steps (the trace invariant
            // checks this), so a step that would cross a bound holds
            // instead of partially clamping.
            let next = if over_budget && cur / 2 >= self.cfg.min_chunk {
                cur / 2
            } else if !over_budget
                && overhead > self.cfg.overhead_high
                && cur * 2 <= self.cfg.max_chunk
            {
                cur * 2
            } else {
                cur
            };
            if next != cur {
                self.targets[k].store(next, Ordering::Relaxed);
                changes.push(GranularityChangeInfo {
                    kernel: kid,
                    from: cur,
                    to: next,
                    overhead_ppm: (overhead * 1_000_000.0) as u64,
                    p95_ns: p95.as_nanos() as u64,
                });
            }
        }
        changes
    }

    /// Decide which kernels of a program may be adapted: non-source
    /// kernels with at least one index variable (data-parallel instance
    /// spaces), not dispatch-ordered, and not coupled into a fusion plan
    /// (fusion fixes the unit shape).
    pub(crate) fn eligibility(
        spec: &p2g_graph::ProgramSpec,
        options: &[KernelOptions],
        fusions: &[crate::program::FusionPlan],
    ) -> Vec<bool> {
        (0..spec.kernels.len())
            .map(|k| {
                let kid = KernelId(k as u32);
                let kspec = &spec.kernels[k];
                !kspec.is_source()
                    && kspec.index_vars >= 1
                    && !options[k].ordered
                    && !fusions
                        .iter()
                        .any(|f| f.producer == kid || f.consumer == kid)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn controller(n: usize, cfg: AdaptiveGranularity) -> GranularityController {
        let options = vec![KernelOptions::default(); n];
        GranularityController::new(cfg, &options, vec![true; n])
    }

    fn fast_cfg() -> AdaptiveGranularity {
        AdaptiveGranularity {
            interval: Duration::ZERO,
            min_samples: 1,
            ..AdaptiveGranularity::default()
        }
    }

    #[test]
    fn grows_on_high_overhead() {
        let c = controller(1, fast_cfg());
        let ins = Instruments::new(vec!["k".into()]);
        // 100 instances, dispatch dominates (80/20).
        ins.record_unit(
            KernelId(0),
            100,
            Duration::from_micros(80),
            Duration::from_micros(20),
        );
        for _ in 0..100 {
            ins.record_latency(KernelId(0), Duration::from_nanos(200));
        }
        let changes = c.tick(&ins);
        assert_eq!(changes.len(), 1);
        assert_eq!((changes[0].from, changes[0].to), (1, 2));
        assert_eq!(c.chunk_for(KernelId(0)), 2);
        assert!(changes[0].overhead_ppm > 400_000);
    }

    #[test]
    fn shrinks_when_p95_budget_threatened() {
        let mut cfg = fast_cfg();
        cfg.p95_budget = Some(Duration::from_micros(10));
        let c = controller(1, cfg);
        c.targets[0].store(64, Ordering::Relaxed);
        let ins = Instruments::new(vec!["k".into()]);
        // Body-heavy interval with slow instances: 64 × ~2µs ≫ 10µs.
        ins.record_unit(
            KernelId(0),
            100,
            Duration::from_micros(1),
            Duration::from_micros(200),
        );
        for _ in 0..100 {
            ins.record_latency(KernelId(0), Duration::from_micros(2));
        }
        let changes = c.tick(&ins);
        assert_eq!(changes.len(), 1);
        assert_eq!((changes[0].from, changes[0].to), (64, 32));
    }

    #[test]
    fn holds_steady_in_the_comfortable_band() {
        let c = controller(1, fast_cfg());
        let ins = Instruments::new(vec!["k".into()]);
        // Low overhead (10/90), fast instances: no reason to move.
        ins.record_unit(
            KernelId(0),
            100,
            Duration::from_micros(10),
            Duration::from_micros(90),
        );
        for _ in 0..100 {
            ins.record_latency(KernelId(0), Duration::from_nanos(900));
        }
        assert!(c.tick(&ins).is_empty());
        assert_eq!(c.chunk_for(KernelId(0)), 1);
    }

    #[test]
    fn min_samples_gates_noise() {
        let mut cfg = fast_cfg();
        cfg.min_samples = 1000;
        let c = controller(1, cfg);
        let ins = Instruments::new(vec!["k".into()]);
        ins.record_unit(
            KernelId(0),
            100,
            Duration::from_micros(80),
            Duration::from_micros(20),
        );
        assert!(c.tick(&ins).is_empty());
    }

    #[test]
    fn interval_gates_ticks() {
        let mut cfg = fast_cfg();
        cfg.interval = Duration::from_secs(3600);
        let c = controller(1, cfg);
        let ins = Instruments::new(vec!["k".into()]);
        ins.record_unit(
            KernelId(0),
            100,
            Duration::from_micros(80),
            Duration::from_micros(20),
        );
        // First tick establishes the baseline window (and may decide);
        // the second is inside the hour-long interval.
        let _ = c.tick(&ins);
        assert!(c.tick(&ins).is_empty());
    }

    #[test]
    fn non_adaptive_kernels_report_zero() {
        let options = vec![KernelOptions::default(); 2];
        let c = GranularityController::new(fast_cfg(), &options, vec![true, false]);
        assert_eq!(c.chunk_for(KernelId(0)), 1);
        assert_eq!(c.chunk_for(KernelId(1)), 0);
    }

    #[test]
    fn growth_saturates_at_max_chunk() {
        let mut cfg = fast_cfg();
        cfg.max_chunk = 4;
        cfg.p95_budget = None;
        let c = controller(1, cfg);
        let ins = Instruments::new(vec!["k".into()]);
        for round in 1..=5u64 {
            ins.record_unit(
                KernelId(0),
                100,
                Duration::from_micros(80),
                Duration::from_micros(20),
            );
            let _ = c.tick(&ins);
            let _ = round;
        }
        assert_eq!(c.chunk_for(KernelId(0)), 4);
    }

    #[test]
    fn eligibility_excludes_ordered_and_fused() {
        use p2g_graph::spec::mul_sum_example;
        let spec = mul_sum_example();
        let mut options = vec![KernelOptions::default(); spec.kernels.len()];
        let print = spec.kernel_by_name("print").unwrap();
        options[print.idx()].ordered = true;
        let mul2 = spec.kernel_by_name("mul2").unwrap();
        let plus5 = spec.kernel_by_name("plus5").unwrap();
        let fusions = vec![crate::program::FusionPlan {
            producer: mul2,
            consumer: plus5,
            producer_store: 0,
            elide_store: false,
        }];
        let e = GranularityController::eligibility(&spec, &options, &fusions);
        assert!(!e[print.idx()], "ordered kernels are not adapted");
        assert!(!e[mul2.idx()] && !e[plus5.idx()], "fused pairs are pinned");
    }
}
