//! The P2G execution-node runtime: the low-level scheduler (LLS).
//!
//! A node built with [`NodeBuilder`] runs a [`Program`] — a validated
//! [`p2g_graph::ProgramSpec`] plus Rust kernel bodies — on a
//! [`WorkerPool`] (its own, or one shared with other tenants), with
//! dependency analysis in dedicated threads as in the paper's prototype
//! (Section VI-B):
//!
//! * Kernel instances produce **events** on store/resize operations.
//! * The **dependency analyzer** subscribes to those events, finds every
//!   *new* valid combination of age and index variables whose data
//!   dependencies are now fulfilled, and pushes them onto per-kernel ready
//!   queues.
//! * **Worker threads** pop ready instances (lowest age first, so aging
//!   cycles are never starved), assemble their fetch buffers, run the kernel
//!   body, apply its stores, and emit the resulting events.
//!
//! Granularity adaptation (paper Figure 4) is exposed through
//! [`KernelOptions`]: `chunk_size` merges several instances of one kernel
//! into a single dispatch (less data parallelism, lower overhead) and
//! [`Program::fuse`] runs a consumer kernel inline after its producer
//! (less task parallelism, elided intermediate dispatch). Either way a
//! worker runs each dispatch unit as one work unit.
//!
//! ```
//! use p2g_runtime::{Program, NodeBuilder, RunLimits};
//! use p2g_graph::spec::mul_sum_example;
//! use p2g_field::{Buffer, Value};
//!
//! let spec = mul_sum_example();
//! let mut program = Program::new(spec).unwrap();
//! program.body("init", |ctx| {
//!     ctx.store(0, Buffer::from_vec((0..5).map(|i| i + 10).collect::<Vec<i32>>()));
//!     Ok(())
//! });
//! program.body("mul2", |ctx| {
//!     let v = ctx.input(0).value(0).as_i64() as i32;
//!     ctx.store(0, Buffer::from_vec(vec![v * 2]));
//!     Ok(())
//! });
//! program.body("plus5", |ctx| {
//!     let v = ctx.input(0).value(0).as_i64() as i32;
//!     ctx.store(0, Buffer::from_vec(vec![v + 5]));
//!     Ok(())
//! });
//! program.body("print", |_ctx| Ok(()));
//!
//! let node = NodeBuilder::new(program).workers(2);
//! let report = node.launch(RunLimits::ages(3)).unwrap().wait().unwrap();
//! assert!(report.instruments.kernel("mul2").unwrap().instances > 0);
//! ```

pub mod analyzer;
pub mod error;
pub mod events;
pub mod granularity;
pub mod instance;
pub mod instrument;
pub mod node;
pub mod options;
pub mod pool;
pub mod program;
pub mod ready;
pub mod session;
pub mod timer;
pub mod trace;
pub mod trace_check;

pub use analyzer::DependencyAnalyzer;
pub use error::RuntimeError;
pub use events::{Event, StoreEvent};
pub use instance::InstanceKey;
pub use instrument::{Instruments, KernelStats, LatencyHistogram, RunReport, Termination};
pub use node::{FieldStore, NodeBuilder, NodeHandle, StoreTap};
pub use options::{
    jittered_backoff, AdaptiveGranularity, ExhaustPolicy, FaultPolicy, KernelOptions, RunLimits,
};
pub use pool::{Qos, WorkerPool};
pub use program::{BodyResult, KernelCtx, Program};
pub use session::{
    Session, SessionConfig, SessionMetrics, SessionOutput, SessionReport, SessionRuntime,
    SessionSink, SubmitError, Ticket,
};
pub use timer::TimerTable;
pub use trace::{RunTrace, TraceEvent, TraceRecord, Tracer};

/// Owned copy of an age expression, used internally where borrowing the
/// program spec across a mutable analyzer call is not possible.
#[derive(Debug, Clone, Copy)]
pub(crate) enum AgeExprCopy {
    Rel(i64),
    Const(u64),
}
