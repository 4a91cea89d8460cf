//! The kernel-language compiler driver: source text → runnable
//! [`p2g_runtime::Program`].
//!
//! The paper's compiler emitted C++ and drove the native toolchain; this
//! driver instead wraps each kernel's execution plan in a Rust closure that
//! invokes the native-block interpreter. Either way the output is the same
//! shape: a validated [`p2g_graph::ProgramSpec`] plus one executable body
//! per kernel definition.

use std::sync::Arc;

use parking_lot::Mutex;

use p2g_field::ScalarType;
use p2g_graph::ProgramSpec;
use p2g_runtime::Program;

use crate::error::LangError;
use crate::interp::run_kernel;
use crate::parser::parse;
use crate::sema::analyze;

/// Captures `print`/`println` output from interpreted kernels (the paper's
/// `cout <<`). Shared between all kernel instances; kernels that print are
/// automatically marked ordered so the capture is deterministic.
#[derive(Debug, Default, Clone)]
pub struct PrintSink {
    buf: Arc<Mutex<String>>,
}

impl PrintSink {
    /// Empty sink.
    pub fn new() -> PrintSink {
        PrintSink::default()
    }

    /// Append text (called by the interpreter).
    pub fn write(&self, text: &str) {
        self.buf.lock().push_str(text);
    }

    /// Take the captured output, clearing the sink.
    pub fn take(&self) -> String {
        std::mem::take(&mut self.buf.lock())
    }
}

/// A compiled kernel-language program.
pub struct CompiledProgram {
    /// The runnable program (hand to [`p2g_runtime::NodeBuilder`]).
    pub program: Program,
    /// Captured `print` output.
    pub print: PrintSink,
    /// The derived program spec (also available via `program.spec()`).
    pub spec: ProgramSpec,
}

/// Compile kernel-language source to a runnable program.
pub fn compile_source(src: &str) -> Result<CompiledProgram, LangError> {
    let unit = parse(src)?;
    let analyzed = analyze(&unit)?;
    let spec = analyzed.spec.clone();

    let mut program = Program::new(analyzed.spec).map_err(|e| LangError::sema(e.to_string()))?;
    let field_types: Arc<Vec<ScalarType>> = Arc::new(spec.fields.iter().map(|f| f.ty).collect());
    let print = PrintSink::new();

    for timer in &analyzed.timers {
        program.timers().declare(timer);
    }

    for plan in analyzed.plans {
        let plan = Arc::new(plan);
        let kid = spec
            .kernel_by_name(&plan.name)
            .expect("plan names match spec");
        if plan.prints {
            // Deterministic output order regardless of worker count.
            let name = plan.name.clone();
            program.set_ordered(&name);
        }
        let stores = Arc::new(spec.kernel(kid).stores.clone());
        let ftypes = field_types.clone();
        let sink = print.clone();
        let p = plan.clone();
        program.body_id(kid, move |ctx| run_kernel(&p, &stores, &ftypes, ctx, &sink));
    }

    Ok(CompiledProgram {
        program,
        print,
        spec,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2g_field::{Age, Region};
    use p2g_runtime::{NodeBuilder, RunLimits};

    const MUL_SUM: &str = r#"
int32[] m_data age;
int32[] p_data age;

init:
  local int32[] values;
  %{
    int i = 0;
    for (; i < 5; ++i) put(values, i + 10, i);
  %}
  store m_data(0) = values;

mul2:
  age a; index x;
  local int32 value;
  fetch value = m_data(a)[x];
  %{ value *= 2; %}
  store p_data(a)[x] = value;

plus5:
  age a; index x;
  local int32 value;
  fetch value = p_data(a)[x];
  %{ value += 5; %}
  store m_data(a+1)[x] = value;

print:
  age a;
  local int32[] m;
  local int32[] p;
  fetch m = m_data(a);
  fetch p = p_data(a);
  %{
    for (int i = 0; i < extent(m, 0); ++i) print(get(m, i));
    println();
    for (int i = 0; i < extent(p, 0); ++i) print(get(p, i));
    println();
  %}
"#;

    #[test]
    fn figure5_program_runs_and_matches_paper_output() {
        let compiled = compile_source(MUL_SUM).unwrap();
        let node = NodeBuilder::new(compiled.program).workers(4);
        let (report, fields) = node
            .launch(RunLimits::ages(2))
            .and_then(|n| n.collect())
            .unwrap();
        assert_eq!(
            report.termination,
            p2g_runtime::instrument::Termination::Quiescent
        );

        // Field contents per the paper's Section V narrative.
        let m0 = fields.fetch("m_data", Age(0), &Region::all(1)).unwrap();
        assert_eq!(m0.as_i32().unwrap(), &[10, 11, 12, 13, 14]);
        let p0 = fields.fetch("p_data", Age(0), &Region::all(1)).unwrap();
        assert_eq!(p0.as_i32().unwrap(), &[20, 22, 24, 26, 28]);
        let m1 = fields.fetch("m_data", Age(1), &Region::all(1)).unwrap();
        assert_eq!(m1.as_i32().unwrap(), &[25, 27, 29, 31, 33]);
        let p1 = fields.fetch("p_data", Age(1), &Region::all(1)).unwrap();
        assert_eq!(p1.as_i32().unwrap(), &[50, 54, 58, 62, 66]);

        // The print kernel captured both ages, in age order.
        let out = compiled.print.take();
        let expected = "10 11 12 13 14 \n20 22 24 26 28 \n25 27 29 31 33 \n50 54 58 62 66 \n";
        assert_eq!(out, expected);
    }

    #[test]
    fn print_output_deterministic_across_workers() {
        let reference = {
            let c = compile_source(MUL_SUM).unwrap();
            NodeBuilder::new(c.program)
                .workers(1)
                .launch(RunLimits::ages(3))
                .and_then(|n| n.wait())
                .unwrap();
            c.print.take()
        };
        for workers in [2, 4] {
            let c = compile_source(MUL_SUM).unwrap();
            NodeBuilder::new(c.program)
                .workers(workers)
                .launch(RunLimits::ages(3))
                .and_then(|n| n.wait())
                .unwrap();
            assert_eq!(c.print.take(), reference, "workers={workers}");
        }
    }

    #[test]
    fn timers_declared_from_source() {
        let src = "timer t1;\nint32[] f age;\ninit:\n local int32[] v;\n %{ put(v, 1, 0); %}\n store f(0) = v;";
        let compiled = compile_source(src).unwrap();
        assert_eq!(compiled.program.timers().names(), vec!["t1".to_string()]);
    }

    #[test]
    fn interp_error_surfaces_as_kernel_failure() {
        let src = r#"
int32[] f age;
init:
  local int32[] v;
  %{ int x = 1 / 0; put(v, x, 0); %}
  store f(0) = v;
"#;
        let compiled = compile_source(src).unwrap();
        let err = NodeBuilder::new(compiled.program)
            .workers(1)
            .launch(RunLimits::ages(1))
            .and_then(|n| n.wait())
            .unwrap_err();
        assert!(err.to_string().contains("division by zero"), "{err}");
    }

    #[test]
    fn dynamic_store_index_routes_data() {
        // A kernel that writes each element to a computed position
        // (reverses the field) — exercises data-dependent store targets.
        let src = r#"
int32[] src age;
int32[] dst age;
init:
  local int32[] v;
  %{ for (int i = 0; i < 4; ++i) put(v, i, i); %}
  store src(0) = v;
reverse:
  age a; index x;
  local int32 value;
  local int32 target;
  fetch value = src(a)[x];
  %{ target = 3 - x; %}
  store dst(a)[target] = value;
"#;
        let compiled = compile_source(src).unwrap();
        let node = NodeBuilder::new(compiled.program).workers(2);
        let (_, fields) = node
            .launch(RunLimits::ages(1))
            .and_then(|n| n.collect())
            .unwrap();
        let dst = fields.fetch("dst", Age(0), &Region::all(1)).unwrap();
        assert_eq!(dst.as_i32().unwrap(), &[3, 2, 1, 0]);
    }

    #[test]
    fn random_is_deterministic() {
        let src = r#"
float64[] vals age;
init:
  local float64[] v;
  %{ for (int i = 0; i < 8; ++i) put(v, random(), i); %}
  store vals(0) = v;
"#;
        let run = || {
            let compiled = compile_source(src).unwrap();
            let node = NodeBuilder::new(compiled.program).workers(2);
            let (_, fields) = node
                .launch(RunLimits::ages(1))
                .and_then(|n| n.collect())
                .unwrap();
            fields
                .fetch("vals", Age(0), &Region::all(1))
                .unwrap()
                .as_f64()
                .unwrap()
                .to_vec()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        // And the values look random-ish (not all equal).
        assert!(a.windows(2).any(|w| w[0] != w[1]));
        assert!(a.iter().all(|&v| (0.0..1.0).contains(&v)));
    }
}
