//! Execution-node tuning knobs: per-kernel granularity options, fault
//! policies and run limits.

use std::time::Duration;

/// What happens when a kernel instance has exhausted its retry budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExhaustPolicy {
    /// Abort the whole run with a kernel failure (the pre-fault-isolation
    /// behaviour, and the default).
    Abort,
    /// Poison the instance's would-have-been stores: the dependency
    /// analyzer skips exactly the transitively dependent instances and the
    /// run degrades ([`crate::instrument::Termination::Degraded`]) instead
    /// of dying.
    Poison,
}

/// Fraction of extra deterministic delay, in `[0, KERNEL_RETRY_JITTER]`,
/// that each kernel retry backoff adds.
const KERNEL_RETRY_JITTER: f64 = 0.2;

/// Exponential backoff with deterministic jitter, the one backoff of both
/// the kernel retry path ([`FaultPolicy::backoff_for`]) and the network's:
/// `base` doubled per `attempt` up to `cap`, then stretched by a fraction
/// in `[0, jitter]` derived from `salt` (splitmix64 finalizer), so retries
/// of different instances decorrelate while reruns repeat their delays.
pub fn jittered_backoff(
    base: Duration,
    cap: Duration,
    jitter: f64,
    attempt: u32,
    salt: u64,
) -> Duration {
    let base = base.saturating_mul(1u32 << attempt.min(20)).min(cap);
    let mut z = salt.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    let frac = ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64;
    base.mul_f64(1.0 + jitter * frac)
}

/// Per-kernel fault-isolation policy: retry budget, exponential backoff
/// with deterministic jitter, per-instance soft deadline, and the
/// exhaustion action. The default (`retries: 0`, `Abort`, no deadline)
/// reproduces strict fail-fast semantics — a body error or panic aborts
/// the run, but never hangs it.
#[derive(Debug, Clone)]
pub struct FaultPolicy {
    /// Re-execution attempts after the first failure. Failed instances are
    /// re-dispatched as fresh units after the backoff delay.
    pub retries: u32,
    /// Base backoff before the first retry; doubles per attempt.
    pub backoff: Duration,
    /// Upper bound on the exponential backoff.
    pub backoff_cap: Duration,
    /// Per-instance soft deadline. The watchdog thread flags an instance
    /// that overruns it through the cooperative cancellation token
    /// ([`crate::KernelCtx::cancelled`]); the body is expected to poll the
    /// token and bail out (`Err`), which then goes through the normal
    /// retry/exhaustion path. A body that never polls is merely recorded
    /// as a deadline miss — threads are never killed.
    pub deadline: Option<Duration>,
    /// Action once `retries` is exhausted.
    pub on_exhaust: ExhaustPolicy,
}

impl Default for FaultPolicy {
    fn default() -> FaultPolicy {
        FaultPolicy {
            retries: 0,
            backoff: Duration::from_millis(10),
            backoff_cap: Duration::from_secs(1),
            deadline: None,
            on_exhaust: ExhaustPolicy::Abort,
        }
    }
}

impl FaultPolicy {
    /// Policy with a retry budget (other knobs at their defaults).
    pub fn retries(n: u32) -> FaultPolicy {
        FaultPolicy {
            retries: n,
            ..FaultPolicy::default()
        }
    }

    /// Degrade (poison dependents) instead of aborting on exhaustion.
    pub fn poison(mut self) -> FaultPolicy {
        self.on_exhaust = ExhaustPolicy::Poison;
        self
    }

    /// Set the per-instance soft deadline.
    pub fn with_deadline(mut self, d: Duration) -> FaultPolicy {
        self.deadline = Some(d);
        self
    }

    /// Set the base backoff (doubles per attempt, capped).
    pub fn with_backoff(mut self, base: Duration, cap: Duration) -> FaultPolicy {
        self.backoff = base;
        self.backoff_cap = cap;
        self
    }

    /// True when this policy ever needs the watchdog thread (delayed
    /// retries or deadline flagging).
    pub(crate) fn needs_watchdog(&self) -> bool {
        self.retries > 0 || self.deadline.is_some()
    }

    /// The backoff delay before re-dispatching `attempt + 1`, with the
    /// deterministic jitter derived from `salt` (an instance-identity
    /// hash).
    pub fn backoff_for(&self, attempt: u32, salt: u64) -> Duration {
        jittered_backoff(
            self.backoff,
            self.backoff_cap,
            KERNEL_RETRY_JITTER,
            attempt,
            salt,
        )
    }
}

/// Per-kernel low-level-scheduler options — the granularity adaptation of
/// paper Figure 4. Fusion (Age=3) pairs two kernels, so it is recorded once,
/// on the program ([`crate::Program::fuse`]), not here.
#[derive(Debug, Clone)]
pub struct KernelOptions {
    /// Maximum number of ready instances of this kernel (same age) merged
    /// into one dispatch unit. 1 = finest data granularity (the default,
    /// and what the programmer is encouraged to express); larger values
    /// trade data parallelism for lower dispatch overhead (Figure 4,
    /// Age=2).
    pub chunk_size: usize,
    /// Dispatch instances of this kernel strictly in age order, one age at
    /// a time. Needed by kernels with ordered side effects (the MJPEG
    /// `VLC/write` kernel appends to the output bitstream).
    pub ordered: bool,
    /// Fault-isolation policy for this kernel's instances.
    pub fault: FaultPolicy,
}

impl Default for KernelOptions {
    fn default() -> KernelOptions {
        KernelOptions {
            chunk_size: 1,
            ordered: false,
            fault: FaultPolicy::default(),
        }
    }
}

/// Configuration of the online granularity controller
/// (`crate::granularity::GranularityController`): the adaptation loop
/// that replaces static per-kernel `chunk_size` numbers with
/// trace-driven decisions — multiplicative increase while per-instance
/// dispatch overhead dominates, backoff when p95 instance latency
/// threatens a deadline budget.
#[derive(Debug, Clone)]
pub struct AdaptiveGranularity {
    /// Lower bound on the adapted chunk size.
    pub min_chunk: usize,
    /// Upper bound on the adapted chunk size.
    pub max_chunk: usize,
    /// Grow the chunk (×2) while `dispatch_ns / (dispatch_ns + kernel_ns)`
    /// over the last interval exceeds this fraction.
    pub overhead_high: f64,
    /// Shrink the chunk (÷2) when estimated per-unit latency
    /// (`p95 instance latency × chunk`) exceeds this budget. `None`
    /// disables the backoff (grow-only adaptation).
    pub p95_budget: Option<Duration>,
    /// Minimum time between controller decisions per kernel.
    pub interval: Duration,
    /// Minimum new instance completions in an interval before deciding —
    /// avoids adapting on noise.
    pub min_samples: u64,
}

impl Default for AdaptiveGranularity {
    fn default() -> AdaptiveGranularity {
        AdaptiveGranularity {
            min_chunk: 1,
            max_chunk: 256,
            overhead_high: 0.4,
            p95_budget: Some(Duration::from_millis(5)),
            interval: Duration::from_millis(2),
            min_samples: 32,
        }
    }
}

/// Limits that bound a run of a (possibly infinite) P2G program.
#[derive(Debug, Clone)]
pub struct RunLimits {
    /// Stop creating instances at this age (exclusive). The mul2/plus5
    /// example runs forever without it.
    pub max_ages: Option<u64>,
    /// Abort after this wall-clock duration.
    pub wall_deadline: Option<Duration>,
    /// Garbage-collect field ages more than this many ages behind the
    /// newest stored age of the same field. `None` disables GC.
    pub gc_window: Option<u64>,
    /// Distributed mode: do not stop when locally quiescent — remote
    /// stores may still arrive. The cluster coordinator detects global
    /// quiescence and calls `request_stop` on every node.
    pub hold_open: bool,
    /// Structured run tracing ([`crate::trace`]): record typed execution
    /// events into per-thread ring buffers of
    /// [`crate::trace::TRACE_CAPACITY`] events and attach the merged
    /// [`crate::trace::RunTrace`] to the run report. `false` disables
    /// recording (one branch per would-be event). Defaults to enabled
    /// when the crate is built with the `trace` feature.
    pub trace: bool,
    /// Online granularity adaptation: when set, a
    /// `crate::granularity::GranularityController` on the analyzer
    /// thread adjusts each kernel's effective chunk size from live
    /// per-kernel latency/overhead instruments, overriding the static
    /// `chunk_size` numbers. `None` (the default) keeps static chunking.
    pub adaptive: Option<AdaptiveGranularity>,
}

/// Whether [`RunLimits::default`] traces: on when the crate is built with
/// the `trace` feature.
const TRACE_BY_DEFAULT: bool = cfg!(feature = "trace");

impl Default for RunLimits {
    fn default() -> RunLimits {
        RunLimits {
            max_ages: None,
            wall_deadline: None,
            gc_window: None,
            hold_open: false,
            trace: TRACE_BY_DEFAULT,
            adaptive: None,
        }
    }
}

impl RunLimits {
    /// Run until quiescent with no limits (for terminating programs).
    pub fn unbounded() -> RunLimits {
        RunLimits::default()
    }

    /// Limit the run to `n` ages.
    pub fn ages(n: u64) -> RunLimits {
        RunLimits {
            max_ages: Some(n),
            ..RunLimits::default()
        }
    }

    /// Resident streaming mode: no age cap, stay open across local
    /// quiescence (input arrives over time, e.g. session frame submission),
    /// and GC field ages more than `gc_window` behind each field's
    /// frontier so memory stays flat over unbounded input.
    pub(crate) fn streaming(gc_window: u64) -> RunLimits {
        RunLimits {
            gc_window: Some(gc_window),
            hold_open: true,
            ..RunLimits::default()
        }
    }

    /// Add a wall-clock deadline.
    pub fn with_deadline(mut self, d: Duration) -> RunLimits {
        self.wall_deadline = Some(d);
        self
    }

    /// Add an age GC window.
    pub fn with_gc_window(mut self, w: u64) -> RunLimits {
        self.gc_window = Some(w);
        self
    }

    /// Enable structured run tracing.
    pub fn with_trace(mut self) -> RunLimits {
        self.trace = true;
        self
    }

    /// Enable online granularity adaptation with the given controller
    /// configuration: the controller resizes each eligible kernel's
    /// dispatch units, which the executor runs as one work unit whatever
    /// their size.
    pub fn with_adaptive(mut self, cfg: AdaptiveGranularity) -> RunLimits {
        self.adaptive = Some(cfg);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let o = KernelOptions::default();
        assert_eq!(o.chunk_size, 1);
        assert!(!o.ordered);
    }

    #[test]
    fn builders() {
        let l = RunLimits::ages(5)
            .with_deadline(Duration::from_secs(1))
            .with_gc_window(3);
        assert_eq!(l.max_ages, Some(5));
        assert_eq!(l.gc_window, Some(3));
        assert!(l.wall_deadline.is_some());
    }

    #[test]
    fn batch_and_adaptive_builders() {
        let l = RunLimits::default();
        assert!(l.adaptive.is_none());
        let l = RunLimits::ages(5).with_adaptive(AdaptiveGranularity::default());
        let cfg = l.adaptive.unwrap();
        assert_eq!(cfg.min_chunk, 1);
        assert_eq!(cfg.max_chunk, 256);
    }

    /// The jittered doubling is pinned to the nanosecond for a fixed
    /// salt, so a refactor of the backoff cannot move a delay.
    #[test]
    fn backoff_is_pinned() {
        let p = FaultPolicy::default();
        let got: Vec<u128> = (0..4)
            .map(|a| p.backoff_for(a, 0x5EED).as_nanos())
            .collect();
        assert_eq!(got, [10_077_697, 20_155_395, 40_310_790, 80_621_580]);
    }
}
