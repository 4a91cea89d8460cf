//! Semantic analysis: bind names, derive the [`ProgramSpec`] (the
//! declarative half the schedulers consume) and build per-kernel execution
//! plans for the interpreter.

use std::collections::HashMap;

use p2g_field::{Extents, FieldDef};
use p2g_graph::spec::{
    AgeExpr, FetchDecl, IndexSel, IndexVar, KernelId, KernelSpec, ProgramSpec, StoreDecl,
};

use crate::ast::{AgeRef, Expr, KernelDef, KernelStmt, LocalDecl, SourceUnit, Stmt, Subscript};
use crate::error::LangError;

/// A store step in a kernel's execution plan.
#[derive(Debug, Clone)]
pub(crate) struct StorePlan {
    /// Index into the kernel's `stores` declarations.
    pub store_idx: usize,
    /// The local variable whose value is stored.
    pub value_var: String,
    /// Per dimension: `Some(expr)` when the subscript must be evaluated at
    /// run time (data-dependent target); `None` when the declaration's
    /// static pattern applies.
    pub dyn_subs: Vec<Option<Expr>>,
}

/// One step of a kernel body, executed in source order after all fetches
/// are bound.
#[derive(Debug, Clone)]
pub(crate) enum BodyStep {
    Native(Vec<Stmt>),
    Store(StorePlan),
}

/// Everything the interpreter needs to run one kernel definition.
#[derive(Debug, Clone)]
pub(crate) struct KernelPlan {
    pub name: String,
    /// Age variable name, if declared.
    pub age_var: Option<String>,
    /// Index variable names in declaration order.
    pub index_vars: Vec<String>,
    pub locals: Vec<LocalDecl>,
    /// Fetch target variable names, in fetch-declaration order.
    pub fetch_targets: Vec<String>,
    pub steps: Vec<BodyStep>,
    /// True when a native block calls `print`/`println` — the compiler
    /// marks such kernels ordered so output is deterministic.
    pub prints: bool,
}

/// Result of semantic analysis.
#[derive(Debug)]
pub(crate) struct Analyzed {
    pub spec: ProgramSpec,
    pub plans: Vec<KernelPlan>,
    pub timers: Vec<String>,
}

/// Analyze a parsed source unit.
pub fn analyze(unit: &SourceUnit) -> Result<Analyzed, LangError> {
    let mut spec = ProgramSpec::new();
    let mut field_ids = HashMap::new();

    for f in &unit.fields {
        if field_ids.contains_key(&f.name) {
            return Err(LangError::sema(format!("duplicate field '{}'", f.name)));
        }
        let def = if f.dims.iter().all(|d| d.is_some()) {
            FieldDef::with_extents(
                &f.name,
                f.ty,
                Extents::new(f.dims.iter().map(|d| d.unwrap()).collect::<Vec<_>>()),
            )
        } else {
            FieldDef::new(&f.name, f.ty, f.dims.len())
        };
        let id = spec.add_field(def);
        field_ids.insert(f.name.clone(), id);
    }

    let mut plans = Vec::new();
    for k in &unit.kernels {
        let (kspec, plan) = analyze_kernel(k, &spec, &field_ids)?;
        spec.add_kernel(kspec);
        plans.push(plan);
    }

    spec.validate()
        .map_err(|e| LangError::sema(e.to_string()))?;
    Ok(Analyzed {
        spec,
        plans,
        timers: unit.timers.clone(),
    })
}

fn analyze_kernel(
    k: &KernelDef,
    spec: &ProgramSpec,
    field_ids: &HashMap<String, p2g_field::FieldId>,
) -> Result<(KernelSpec, KernelPlan), LangError> {
    let index_of: HashMap<&str, u8> = k
        .index_vars
        .iter()
        .enumerate()
        .map(|(i, n)| (n.as_str(), i as u8))
        .collect();
    if index_of.len() != k.index_vars.len() {
        return Err(LangError::sema(format!(
            "kernel '{}': duplicate index variable",
            k.name
        )));
    }
    let local_names: HashMap<&str, &LocalDecl> =
        k.locals.iter().map(|l| (l.name.as_str(), l)).collect();

    let resolve_age = |age: &AgeRef| -> Result<AgeExpr, LangError> {
        match age {
            AgeRef::Const(c) => Ok(AgeExpr::Const(*c)),
            AgeRef::Rel { var, delta } => {
                if k.age_var.as_deref() != Some(var.as_str()) {
                    return Err(LangError::sema(format!(
                        "kernel '{}': age expression uses undeclared variable '{var}'",
                        k.name
                    )));
                }
                Ok(AgeExpr::Rel(*delta))
            }
        }
    };

    let mut fetches = Vec::new();
    let mut stores = Vec::new();
    let mut fetch_targets = Vec::new();
    let mut steps = Vec::new();
    let mut prints = false;

    for stmt in &k.body {
        match stmt {
            KernelStmt::Fetch {
                target,
                field,
                age,
                subscripts,
            } => {
                let fid = *field_ids.get(field).ok_or_else(|| {
                    LangError::sema(format!("kernel '{}': unknown field '{field}'", k.name))
                })?;
                let ndim = spec.field(fid).ndim;
                let dims = resolve_subscripts(
                    &k.name, subscripts, ndim, &index_of, /* allow_dynamic */ false,
                )?
                .into_iter()
                .map(|(sel, _)| sel)
                .collect();
                if !local_names.contains_key(target.as_str()) {
                    return Err(LangError::sema(format!(
                        "kernel '{}': fetch target '{target}' is not a declared local",
                        k.name
                    )));
                }
                fetches.push(FetchDecl {
                    field: fid,
                    age: resolve_age(age)?,
                    dims,
                });
                fetch_targets.push(target.clone());
            }
            KernelStmt::Store {
                field,
                age,
                subscripts,
                value,
            } => {
                let fid = *field_ids.get(field).ok_or_else(|| {
                    LangError::sema(format!("kernel '{}': unknown field '{field}'", k.name))
                })?;
                let ndim = spec.field(fid).ndim;
                let resolved = resolve_subscripts(&k.name, subscripts, ndim, &index_of, true)?;
                if !local_names.contains_key(value.as_str()) {
                    return Err(LangError::sema(format!(
                        "kernel '{}': store value '{value}' is not a declared local",
                        k.name
                    )));
                }
                let store_idx = stores.len();
                let dyn_subs = resolved.iter().map(|(_, d)| d.clone()).collect();
                stores.push(StoreDecl {
                    field: fid,
                    age: resolve_age(age)?,
                    dims: resolved.into_iter().map(|(sel, _)| sel).collect(),
                });
                steps.push(BodyStep::Store(StorePlan {
                    store_idx,
                    value_var: value.clone(),
                    dyn_subs,
                }));
            }
            KernelStmt::Native(stmts) => {
                if natives_print(stmts) {
                    prints = true;
                }
                steps.push(BodyStep::Native(stmts.clone()));
            }
        }
    }

    let kspec = KernelSpec {
        id: KernelId(0), // reassigned by add_kernel
        name: k.name.clone(),
        index_vars: k.index_vars.len() as u8,
        has_age_var: k.age_var.is_some(),
        fetches,
        stores,
    };
    let plan = KernelPlan {
        name: k.name.clone(),
        age_var: k.age_var.clone(),
        index_vars: k.index_vars.clone(),
        locals: k.locals.clone(),
        fetch_targets,
        steps,
        prints,
    };
    Ok((kspec, plan))
}

/// Resolve field-reference subscripts to static selectors, with optional
/// dynamic (runtime-evaluated) expressions for stores. Missing trailing
/// subscripts select the whole dimension.
#[allow(clippy::type_complexity)]
fn resolve_subscripts(
    kernel: &str,
    subs: &[Subscript],
    ndim: usize,
    index_of: &HashMap<&str, u8>,
    allow_dynamic: bool,
) -> Result<Vec<(IndexSel, Option<Expr>)>, LangError> {
    if subs.len() > ndim {
        return Err(LangError::sema(format!(
            "kernel '{kernel}': {} subscripts on a {ndim}-dimensional field",
            subs.len()
        )));
    }
    let mut out = Vec::with_capacity(ndim);
    for sub in subs {
        out.push(match sub {
            Subscript::All => (IndexSel::All, None),
            Subscript::Expr(Expr::Int(v)) if *v >= 0 => (IndexSel::Const(*v as usize), None),
            Subscript::Expr(Expr::Var(name)) if index_of.contains_key(name.as_str()) => {
                (IndexSel::Var(IndexVar(index_of[name.as_str()])), None)
            }
            Subscript::Expr(e) => {
                if !allow_dynamic {
                    return Err(LangError::sema(format!(
                        "kernel '{kernel}': fetch subscripts must be index variables, \
                         constants or '*' (dynamic indices are only allowed in stores)"
                    )));
                }
                // Statically the scheduler sees the whole dimension; the
                // actual index is evaluated when the instance runs.
                (IndexSel::All, Some(e.clone()))
            }
        });
    }
    while out.len() < ndim {
        out.push((IndexSel::All, None));
    }
    Ok(out)
}

fn natives_print(stmts: &[Stmt]) -> bool {
    fn expr_prints(e: &Expr) -> bool {
        match e {
            Expr::Call { name, args } => {
                name == "print" || name == "println" || args.iter().any(expr_prints)
            }
            Expr::Assign { value, .. } => expr_prints(value),
            Expr::Unary { expr, .. } => expr_prints(expr),
            Expr::Binary { lhs, rhs, .. } => expr_prints(lhs) || expr_prints(rhs),
            Expr::Ternary {
                cond,
                then_val,
                else_val,
            } => expr_prints(cond) || expr_prints(then_val) || expr_prints(else_val),
            _ => false,
        }
    }
    stmts.iter().any(|s| match s {
        Stmt::Decl { init: Some(e), .. } | Stmt::Expr(e) => expr_prints(e),
        Stmt::Decl { init: None, .. } | Stmt::Break | Stmt::Continue | Stmt::Return => false,
        Stmt::Block(b) => natives_print(b),
        Stmt::If {
            cond,
            then_branch,
            else_branch,
        } => {
            expr_prints(cond)
                || natives_print(std::slice::from_ref(then_branch))
                || else_branch
                    .as_deref()
                    .is_some_and(|e| natives_print(std::slice::from_ref(e)))
        }
        Stmt::While { cond, body } => {
            expr_prints(cond) || natives_print(std::slice::from_ref(body))
        }
        Stmt::For {
            init,
            cond,
            step,
            body,
        } => {
            init.as_deref()
                .is_some_and(|s| natives_print(std::slice::from_ref(s)))
                || cond.as_ref().is_some_and(expr_prints)
                || step.as_ref().is_some_and(expr_prints)
                || natives_print(std::slice::from_ref(body))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn analyze_src(src: &str) -> Result<Analyzed, LangError> {
        analyze(&parse(src).unwrap())
    }

    #[test]
    fn figure5_analyzes_to_expected_spec() {
        let src = r#"
int32[] m_data age;
int32[] p_data age;
init:
  local int32[] values;
  %{ int i = 0; for (; i < 5; ++i) put(values, i + 10, i); %}
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
"#;
        let a = analyze_src(src).unwrap();
        assert_eq!(a.spec.kernels.len(), 3);
        let mul2 = &a.spec.kernels[1];
        assert!(mul2.has_age_var);
        assert_eq!(mul2.index_vars, 1);
        assert_eq!(mul2.fetches[0].age, AgeExpr::Rel(0));
        assert_eq!(mul2.fetches[0].dims, vec![IndexSel::Var(IndexVar(0))]);
        let plus5 = &a.spec.kernels[2];
        assert_eq!(plus5.stores[0].age, AgeExpr::Rel(1));
    }

    #[test]
    fn dynamic_store_subscript_allowed() {
        let src = r#"
float64[][] points age;
int32[] assignment age;
assign:
  age a; index x;
  local float64[] p;
  local int32 best;
  fetch p = points(a)[x][*];
  %{ best = 0; %}
  store assignment(a)[best] = best;
"#;
        let a = analyze_src(src).unwrap();
        let assign = &a.spec.kernels[0];
        // Dynamic index appears as All in the static spec.
        assert_eq!(assign.stores[0].dims, vec![IndexSel::All]);
        match &a.plans[0].steps[1] {
            BodyStep::Store(sp) => {
                assert!(sp.dyn_subs[0].is_some());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn dynamic_fetch_subscript_rejected() {
        let src = r#"
int32[] f age;
k:
  age a;
  local int32 v;
  local int32 i;
  fetch v = f(a)[i + 1];
"#;
        let err = analyze_src(src).unwrap_err();
        assert!(err.to_string().contains("fetch subscripts"), "{err}");
    }

    #[test]
    fn unknown_field_rejected() {
        let err = analyze_src("k:\n local int32 v;\n fetch v = nope(0);").unwrap_err();
        assert!(err.to_string().contains("unknown field"), "{err}");
    }

    #[test]
    fn undeclared_age_var_rejected() {
        let src = "int32[] f age;\nk:\n local int32 v;\n fetch v = f(b)[0];";
        let err = analyze_src(src).unwrap_err();
        assert!(err.to_string().contains("undeclared variable"), "{err}");
    }

    #[test]
    fn undeclared_fetch_target_rejected() {
        let src = "int32[] f age;\nk:\n age a;\n fetch v = f(a);";
        let err = analyze_src(src).unwrap_err();
        assert!(err.to_string().contains("not a declared local"), "{err}");
    }

    #[test]
    fn print_detection_marks_plan() {
        let src = r#"
int32[] f age;
init:
  local int32[] v;
  %{ put(v, 1, 0); %}
  store f(0) = v;
show:
  age a;
  local int32[] m;
  fetch m = f(a);
  %{ println(get(m, 0)); %}
"#;
        let a = analyze_src(src).unwrap();
        assert!(!a.plans[0].prints);
        assert!(a.plans[1].prints);
    }

    #[test]
    fn missing_trailing_subscripts_become_all() {
        let src = r#"
uint8[][] frame age;
k:
  age a; index x;
  local uint8[] row;
  fetch row = frame(a)[x];
"#;
        let a = analyze_src(src).unwrap();
        assert_eq!(
            a.spec.kernels[0].fetches[0].dims,
            vec![IndexSel::Var(IndexVar(0)), IndexSel::All]
        );
    }

    #[test]
    fn non_aging_cycle_caught_via_spec_validation() {
        let src = r#"
int32[] f1 age;
int32[] f2 age;
a:
  age t;
  local int32[] v;
  fetch v = f1(t);
  store f2(t) = v;
b:
  age t;
  local int32[] v;
  fetch v = f2(t);
  store f1(t) = v;
"#;
        let err = analyze_src(src).unwrap_err();
        assert!(err.to_string().contains("cycle"), "{err}");
    }
}
