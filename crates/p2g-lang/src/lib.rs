//! The P2G kernel language: lexer, parser, semantic analysis and an
//! interpreter for embedded native code blocks.
//!
//! The paper exposes P2G through a C-like kernel language (Figure 5):
//! field definitions with an `age` marker, kernel definitions made of
//! `age`/`index`/`local` declarations, `fetch`/`store` statements, and
//! native code blocks in `%{ ... %}`. The paper's compiler emitted C++
//! linked against the runtime; here the native blocks are executed by a
//! small interpreter instead (see DESIGN.md's substitution table), which
//! keeps the language fully self-contained while driving the identical
//! runtime code paths.
//!
//! ```
//! use p2g_lang::compile_source;
//! use p2g_runtime::{NodeBuilder, RunLimits};
//!
//! let src = r#"
//! int32[] m_data age;
//! int32[] p_data age;
//!
//! init:
//!   local int32[] values;
//!   %{
//!     int i = 0;
//!     for (; i < 5; ++i) put(values, i + 10, i);
//!   %}
//!   store m_data(0) = values;
//!
//! mul2:
//!   age a; index x;
//!   local int32 value;
//!   fetch value = m_data(a)[x];
//!   %{ value = value * 2; %}
//!   store p_data(a)[x] = value;
//!
//! plus5:
//!   age a; index x;
//!   local int32 value;
//!   fetch value = p_data(a)[x];
//!   %{ value = value + 5; %}
//!   store m_data(a+1)[x] = value;
//! "#;
//! let compiled = compile_source(src).unwrap();
//! let report = NodeBuilder::new(compiled.program)
//!     .workers(2)
//!     .launch(RunLimits::ages(2))
//!     .unwrap()
//!     .wait()
//!     .unwrap();
//! assert_eq!(report.instruments.kernel("mul2").unwrap().instances, 10);
//! ```

pub(crate) mod ast;
pub mod compile;
pub mod error;
pub(crate) mod interp;
pub(crate) mod lexer;
pub(crate) mod parser;
pub(crate) mod sema;
pub(crate) mod token;

pub use compile::{compile_source, CompiledProgram, PrintSink};
pub use error::LangError;
