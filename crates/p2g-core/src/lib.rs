//! # P2G — distributed real-time processing of multimedia data
//!
//! A Rust implementation of the P2G framework (Espeland et al., ICPP 2011):
//! a dataflow runtime for multimedia workloads built on four ideas —
//! multi-dimensional **fields**, **kernels** processing field slices,
//! **write-once semantics** with **aging** for cycles, and **runtime
//! dependency analysis** that extracts combined task- and data-parallelism.
//!
//! This crate is the facade: it re-exports the component crates and offers
//! a [`prelude`] for downstream users.
//!
//! | Component | Crate | What it provides |
//! |---|---|---|
//! | Fields | [`field`] | aged, write-once multi-dimensional arrays |
//! | Graphs | [`graph`] | program specs, static dependency graphs, DC-DAG, partitioning, topology |
//! | Runtime | [`runtime`] | the execution node: dependency analyzer, worker pool, instrumentation, deadlines, granularity adaptation |
//! | Language | [`lang`] | the kernel language compiler + native-block interpreter |
//! | Distribution | [`dist`] | master node (HLS), pub-sub transport, simulated cluster |
//!
//! ## Quickstart
//!
//! ```
//! use p2g_core::prelude::*;
//!
//! // The paper's Figure-5 program, in the kernel language:
//! let src = r#"
//! int32[] m_data age;
//! int32[] p_data age;
//! init:
//!   local int32[] values;
//!   %{ for (int i = 0; i < 5; ++i) put(values, i + 10, i); %}
//!   store m_data(0) = values;
//! mul2:
//!   age a; index x;
//!   local int32 value;
//!   fetch value = m_data(a)[x];
//!   %{ value *= 2; %}
//!   store p_data(a)[x] = value;
//! plus5:
//!   age a; index x;
//!   local int32 value;
//!   fetch value = p_data(a)[x];
//!   %{ value += 5; %}
//!   store m_data(a+1)[x] = value;
//! "#;
//! let compiled = compile_source(src).unwrap();
//! let (report, fields) = NodeBuilder::new(compiled.program)
//!     .workers(4)
//!     .launch(RunLimits::ages(2))
//!     .unwrap()
//!     .collect()
//!     .unwrap();
//! assert_eq!(
//!     fields.fetch("p_data", Age(1), &Region::all(1)).unwrap().as_i32().unwrap(),
//!     &[50, 54, 58, 62, 66],
//! );
//! assert_eq!(report.instruments.kernel("mul2").unwrap().instances, 10);
//! ```

pub use p2g_dist as dist;
pub use p2g_field as field;
pub use p2g_graph as graph;
pub use p2g_lang as lang;
pub use p2g_runtime as runtime;

/// The common imports for building and running P2G programs.
pub mod prelude {
    pub use p2g_dist::{
        ClusterConfig, ClusterOutcome, FaultPlan, FaultyNet, FrameParts, KillSpec, LinkStats,
        MasterNode, SimCluster, SimNet, StreamFeed, Transport, Workers,
    };
    pub use p2g_field::{
        Age, Buffer, DimSel, Extents, Field, FieldDef, FieldError, FieldId, Region, ScalarType,
        Value,
    };
    pub use p2g_graph::spec::{
        AgeExpr, FetchDecl, IndexSel, IndexVar, KernelId, KernelSpec, ProgramSpec, StoreDecl,
    };
    pub use p2g_graph::{FinalGraph, IntermediateGraph, NodeId, NodeSpec, Topology};
    pub use p2g_lang::{compile_source, CompiledProgram, PrintSink};
    // Batch entry points.
    pub use p2g_runtime::{
        AdaptiveGranularity, ExhaustPolicy, FaultPolicy, KernelCtx, KernelOptions, NodeBuilder,
        NodeHandle, Program, RunLimits, RunReport, RuntimeError, Termination,
    };
    // Streaming-session entry points.
    pub use p2g_runtime::{
        Session, SessionConfig, SessionOutput, SessionReport, SessionRuntime, SessionSink,
        SubmitError, Ticket, WorkerPool,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_builds_a_program() {
        let spec = p2g_graph::spec::mul_sum_example();
        let mut program = Program::new(spec).unwrap();
        for k in ["init", "mul2", "plus5", "print"] {
            program.body(k, |_| Ok(()));
        }
        assert!(program.check_bodies().is_ok());
    }

    #[test]
    fn facade_reexports_align() {
        // The facade types are the component types, not copies.
        fn takes_field_age(_: crate::field::Age) {}
        takes_field_age(Age(3));
    }
}
