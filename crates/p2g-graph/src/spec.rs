//! Program specifications: the declarative half of a P2G program.
//!
//! A [`ProgramSpec`] is what the kernel-language compiler emits and what both
//! schedulers consume: field definitions plus, per kernel, the `fetch` and
//! `store` statements with their age expressions and index patterns. From
//! these the runtime derives instance spaces and dependencies — the paper's
//! "implicit" dependency graph.

use p2g_field::{FieldDef, FieldId};

/// Identifies a kernel definition within a program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct KernelId(pub u32);

impl KernelId {
    /// The id as a usize, for indexing per-kernel tables.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for KernelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "k{}", self.0)
    }
}

/// An index variable declared in a kernel (`index x;`). Each combination of
/// index-variable values yields one kernel instance per age.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IndexVar(pub u8);

/// An age expression in a fetch/store statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AgeExpr {
    /// `a + delta` where `a` is the kernel's age variable. `mul2`'s
    /// `fetch m_data(a)` is `Rel(0)`; `plus5`'s `store m_data(a+1)` is
    /// `Rel(1)`.
    Rel(i64),
    /// A constant age, e.g. `init`'s `store m_data(0)`.
    Const(u64),
}

impl AgeExpr {
    /// Resolve against a concrete instance age.
    #[inline]
    pub fn resolve(self, age: p2g_field::Age) -> p2g_field::Age {
        match self {
            AgeExpr::Rel(d) => age.offset(d),
            AgeExpr::Const(c) => p2g_field::Age(c),
        }
    }

    /// The relative delta, if this is a relative expression.
    pub fn delta(self) -> Option<i64> {
        match self {
            AgeExpr::Rel(d) => Some(d),
            AgeExpr::Const(_) => None,
        }
    }
}

/// Index selection along one field dimension in a fetch/store statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndexSel {
    /// An index variable: finest granularity, one instance per value.
    Var(IndexVar),
    /// The whole dimension (`m_data(a)` with no index — fetch everything).
    All,
    /// A fixed index.
    Const(usize),
}

/// A `fetch` statement: which slice of which field, at which age, a kernel
/// instance consumes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FetchDecl {
    pub field: FieldId,
    pub age: AgeExpr,
    /// One selector per field dimension.
    pub dims: Vec<IndexSel>,
}

impl FetchDecl {
    /// The region names an index variable, so it differs between the
    /// kernel's instances at one age; otherwise every instance fetches the
    /// same region.
    #[inline]
    pub fn varies_by_instance(&self) -> bool {
        self.dims.iter().any(|d| matches!(d, IndexSel::Var(_)))
    }
}

/// A `store` statement: which slice of which field, at which age, a kernel
/// instance may produce.
///
/// Stores are *potential*: a kernel body can skip its stores (end-of-stream
/// in the MJPEG reader, deadline-driven alternate paths), and downstream
/// dependency analysis is driven by actual store events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreDecl {
    pub field: FieldId,
    pub age: AgeExpr,
    pub dims: Vec<IndexSel>,
}

/// The declarative description of one kernel.
#[derive(Debug, Clone)]
pub struct KernelSpec {
    pub id: KernelId,
    pub name: String,
    /// Number of index variables (`index x; index y;` → 2).
    pub index_vars: u8,
    /// Whether the kernel iterates over ages (`age a;`). Kernels without an
    /// age variable (like `init`) run exactly once.
    pub has_age_var: bool,
    pub fetches: Vec<FetchDecl>,
    pub stores: Vec<StoreDecl>,
}

impl KernelSpec {
    /// True for source kernels: no fetches, so they become runnable
    /// unconditionally (exactly once per age, or once overall without an
    /// age variable).
    pub fn is_source(&self) -> bool {
        self.fetches.is_empty()
    }
}

/// Errors found while validating a program specification.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    UnknownField {
        kernel: String,
        field: FieldId,
    },
    DimMismatch {
        kernel: String,
        field: String,
        expected: usize,
        found: usize,
    },
    UnboundIndexVar {
        kernel: String,
        var: IndexVar,
    },
    IndexVarOutOfRange {
        kernel: String,
        var: IndexVar,
    },
    NegativeAgeDelta {
        kernel: String,
        delta: i64,
    },
    /// A cycle in the kernel graph whose total age increment is zero or
    /// negative: its instances would wait on themselves forever. The
    /// write-once/aging model requires every cycle to advance the age.
    NonAgingCycle {
        kernels: Vec<String>,
    },
    DuplicateKernelName {
        name: String,
    },
    DuplicateFieldName {
        name: String,
    },
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::UnknownField { kernel, field } => {
                write!(f, "kernel '{kernel}' references unknown field {field}")
            }
            SpecError::DimMismatch {
                kernel,
                field,
                expected,
                found,
            } => write!(
                f,
                "kernel '{kernel}': field '{field}' has {expected} dims, statement uses {found}"
            ),
            SpecError::UnboundIndexVar { kernel, var } => write!(
                f,
                "kernel '{kernel}': index var #{} not bound by any fetch",
                var.0
            ),
            SpecError::IndexVarOutOfRange { kernel, var } => write!(
                f,
                "kernel '{kernel}': index var #{} exceeds declared index_vars",
                var.0
            ),
            SpecError::NegativeAgeDelta { kernel, delta } => write!(
                f,
                "kernel '{kernel}': fetch/store age delta {delta} is negative"
            ),
            SpecError::NonAgingCycle { kernels } => write!(
                f,
                "cycle without age increment through kernels {kernels:?}: instances would deadlock"
            ),
            SpecError::DuplicateKernelName { name } => {
                write!(f, "duplicate kernel name '{name}'")
            }
            SpecError::DuplicateFieldName { name } => {
                write!(f, "duplicate field name '{name}'")
            }
        }
    }
}

impl std::error::Error for SpecError {}

/// A complete program specification: fields + kernels.
#[derive(Debug, Clone, Default)]
pub struct ProgramSpec {
    pub fields: Vec<FieldDef>,
    pub kernels: Vec<KernelSpec>,
}

impl ProgramSpec {
    /// Empty program.
    pub fn new() -> ProgramSpec {
        ProgramSpec::default()
    }

    /// Add a field, returning its id.
    pub fn add_field(&mut self, def: FieldDef) -> FieldId {
        let id = FieldId(self.fields.len() as u32);
        self.fields.push(def);
        id
    }

    /// Add a kernel, returning its id. The spec's `id` field is overwritten
    /// with the assigned id.
    pub fn add_kernel(&mut self, mut spec: KernelSpec) -> KernelId {
        let id = KernelId(self.kernels.len() as u32);
        spec.id = id;
        self.kernels.push(spec);
        id
    }

    /// Look up a field id by name.
    pub fn field_by_name(&self, name: &str) -> Option<FieldId> {
        self.fields
            .iter()
            .position(|f| f.name == name)
            .map(|i| FieldId(i as u32))
    }

    /// Look up a kernel id by name.
    pub fn kernel_by_name(&self, name: &str) -> Option<KernelId> {
        self.kernels
            .iter()
            .position(|k| k.name == name)
            .map(|i| KernelId(i as u32))
    }

    /// Field definition for an id.
    pub fn field(&self, id: FieldId) -> &FieldDef {
        &self.fields[id.idx()]
    }

    /// Kernel spec for an id.
    pub fn kernel(&self, id: KernelId) -> &KernelSpec {
        &self.kernels[id.idx()]
    }

    /// Validate the whole program: reference integrity, dimensionality,
    /// index-variable binding, and the age-monotone cycle condition that
    /// guarantees deadlock freedom under write-once semantics.
    pub fn validate(&self) -> Result<(), SpecError> {
        let mut field_names = std::collections::HashSet::new();
        for f in &self.fields {
            if !field_names.insert(f.name.as_str()) {
                return Err(SpecError::DuplicateFieldName {
                    name: f.name.clone(),
                });
            }
        }
        let mut kernel_names = std::collections::HashSet::new();
        for k in &self.kernels {
            if !kernel_names.insert(k.name.as_str()) {
                return Err(SpecError::DuplicateKernelName {
                    name: k.name.clone(),
                });
            }
        }

        for k in &self.kernels {
            let mut bound = vec![false; k.index_vars as usize];
            for (is_fetch, field, age, dims) in k
                .fetches
                .iter()
                .map(|f| (true, f.field, f.age, &f.dims))
                .chain(k.stores.iter().map(|s| (false, s.field, s.age, &s.dims)))
            {
                let fd = self
                    .fields
                    .get(field.idx())
                    .ok_or(SpecError::UnknownField {
                        kernel: k.name.clone(),
                        field,
                    })?;
                if dims.len() != fd.ndim {
                    return Err(SpecError::DimMismatch {
                        kernel: k.name.clone(),
                        field: fd.name.clone(),
                        expected: fd.ndim,
                        found: dims.len(),
                    });
                }
                if let AgeExpr::Rel(d) = age {
                    if d < 0 {
                        return Err(SpecError::NegativeAgeDelta {
                            kernel: k.name.clone(),
                            delta: d,
                        });
                    }
                }
                for sel in dims {
                    if let IndexSel::Var(v) = sel {
                        if v.0 as usize >= k.index_vars as usize {
                            return Err(SpecError::IndexVarOutOfRange {
                                kernel: k.name.clone(),
                                var: *v,
                            });
                        }
                        if is_fetch {
                            bound[v.0 as usize] = true;
                        }
                    }
                }
            }
            if let Some(unbound) = bound.iter().position(|&b| !b) {
                // Index vars used only in stores have no defined range.
                // (Kernels with zero index vars trivially pass.)
                let used_in_store = k.stores.iter().any(|s| {
                    s.dims
                        .iter()
                        .any(|d| matches!(d, IndexSel::Var(v) if v.0 as usize == unbound))
                });
                if used_in_store || k.index_vars as usize > 0 {
                    return Err(SpecError::UnboundIndexVar {
                        kernel: k.name.clone(),
                        var: IndexVar(unbound as u8),
                    });
                }
            }
            let _ = k;
        }

        self.check_aging_cycles()
    }

    /// Detect cycles with non-positive total age increment.
    ///
    /// For an edge producer→consumer through a field, an instance at age
    /// `a` of the producer storing with delta `s` feeds the consumer
    /// instance at age `a + s - t` (fetch delta `t`). Around a cycle the
    /// deltas must sum to something strictly positive, otherwise the cycle's
    /// instances at some age depend on each other and can never run.
    fn check_aging_cycles(&self) -> Result<(), SpecError> {
        // Edges with weight = s - t between kernels with age vars. Const-age
        // statements don't participate in cycles (they touch one age only).
        let n = self.kernels.len();
        let mut edges: Vec<(usize, usize, i64)> = Vec::new();
        for prod in &self.kernels {
            for st in &prod.stores {
                let Some(s) = st.age.delta() else { continue };
                for cons in &self.kernels {
                    for fe in &cons.fetches {
                        if fe.field != st.field {
                            continue;
                        }
                        let Some(t) = fe.age.delta() else { continue };
                        edges.push((prod.id.idx(), cons.id.idx(), s - t));
                    }
                }
            }
        }

        // A cycle with total weight <= 0 exists iff the graph, with edge
        // weights negated, has a cycle of weight >= 0... simpler: detect via
        // DFS enumeration on the SCCs using Bellman-Ford for longest paths
        // is fragile. With small kernel counts we enumerate simple cycles
        // via DFS (kernel graphs are tiny: the paper's largest has 6).
        let mut adj: Vec<Vec<(usize, i64)>> = vec![Vec::new(); n];
        for &(u, v, w) in &edges {
            adj[u].push((v, w));
        }
        let mut stack: Vec<(usize, i64)> = Vec::new();
        let mut on_stack = vec![false; n];

        fn dfs(
            u: usize,
            adj: &[Vec<(usize, i64)>],
            stack: &mut Vec<(usize, i64)>,
            on_stack: &mut [bool],
            kernels: &[KernelSpec],
        ) -> Result<(), SpecError> {
            for &(v, w) in &adj[u] {
                if let Some(pos) = stack.iter().position(|&(k, _)| k == v) {
                    // Found a cycle v..u→v; sum the weights along it plus w.
                    let total: i64 = stack[pos + 1..].iter().map(|&(_, pw)| pw).sum::<i64>() + w;
                    if total <= 0 {
                        return Err(SpecError::NonAgingCycle {
                            kernels: stack[pos..]
                                .iter()
                                .map(|&(k, _)| kernels[k].name.clone())
                                .collect(),
                        });
                    }
                } else if !on_stack[v] {
                    stack.push((v, w));
                    on_stack[v] = true;
                    let r = dfs(v, adj, stack, on_stack, kernels);
                    stack.pop();
                    on_stack[v] = false;
                    r?;
                }
            }
            Ok(())
        }

        for start in 0..n {
            stack.push((start, 0));
            on_stack[start] = true;
            let r = dfs(start, &adj, &mut stack, &mut on_stack, &self.kernels);
            stack.pop();
            on_stack[start] = false;
            r?;
        }
        Ok(())
    }

    /// Consumers of each field: (kernel, fetch index) pairs.
    pub fn consumers_of(&self, field: FieldId) -> Vec<(KernelId, usize)> {
        let mut out = Vec::new();
        for k in &self.kernels {
            for (i, f) in k.fetches.iter().enumerate() {
                if f.field == field {
                    out.push((k.id, i));
                }
            }
        }
        out
    }
}

/// Build the paper's Figure-5 example program spec (mul2 / plus5 / print /
/// init over fields `m_data` and `p_data`). Used by tests, docs and
/// examples throughout the workspace.
pub fn mul_sum_example() -> ProgramSpec {
    use p2g_field::ScalarType;

    let mut p = ProgramSpec::new();
    let m_data = p.add_field(FieldDef::new("m_data", ScalarType::I32, 1));
    let p_data = p.add_field(FieldDef::new("p_data", ScalarType::I32, 1));

    // init: store m_data(0) = values;
    p.add_kernel(KernelSpec {
        id: KernelId(0),
        name: "init".into(),
        index_vars: 0,
        has_age_var: false,
        fetches: vec![],
        stores: vec![StoreDecl {
            field: m_data,
            age: AgeExpr::Const(0),
            dims: vec![IndexSel::All],
        }],
    });
    // mul2: fetch value = m_data(a)[x]; store p_data(a)[x] = value*2;
    p.add_kernel(KernelSpec {
        id: KernelId(0),
        name: "mul2".into(),
        index_vars: 1,
        has_age_var: true,
        fetches: vec![FetchDecl {
            field: m_data,
            age: AgeExpr::Rel(0),
            dims: vec![IndexSel::Var(IndexVar(0))],
        }],
        stores: vec![StoreDecl {
            field: p_data,
            age: AgeExpr::Rel(0),
            dims: vec![IndexSel::Var(IndexVar(0))],
        }],
    });
    // plus5: fetch value = p_data(a)[x]; store m_data(a+1)[x] = value+5;
    p.add_kernel(KernelSpec {
        id: KernelId(0),
        name: "plus5".into(),
        index_vars: 1,
        has_age_var: true,
        fetches: vec![FetchDecl {
            field: p_data,
            age: AgeExpr::Rel(0),
            dims: vec![IndexSel::Var(IndexVar(0))],
        }],
        stores: vec![StoreDecl {
            field: m_data,
            age: AgeExpr::Rel(1),
            dims: vec![IndexSel::Var(IndexVar(0))],
        }],
    });
    // print: fetch m = m_data(a); fetch p = p_data(a); (no stores)
    p.add_kernel(KernelSpec {
        id: KernelId(0),
        name: "print".into(),
        index_vars: 0,
        has_age_var: true,
        fetches: vec![
            FetchDecl {
                field: m_data,
                age: AgeExpr::Rel(0),
                dims: vec![IndexSel::All],
            },
            FetchDecl {
                field: p_data,
                age: AgeExpr::Rel(0),
                dims: vec![IndexSel::All],
            },
        ],
        stores: vec![],
    });
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2g_field::ScalarType;

    #[test]
    fn mul_sum_example_validates() {
        let p = mul_sum_example();
        p.validate().unwrap();
        assert_eq!(p.kernels.len(), 4);
        assert_eq!(p.fields.len(), 2);
        assert_eq!(p.kernel_by_name("mul2"), Some(KernelId(1)));
        assert_eq!(p.field_by_name("p_data"), Some(FieldId(1)));
    }

    #[test]
    fn age_expr_resolution() {
        use p2g_field::Age;
        assert_eq!(AgeExpr::Rel(1).resolve(Age(3)), Age(4));
        assert_eq!(AgeExpr::Rel(0).resolve(Age(3)), Age(3));
        assert_eq!(AgeExpr::Const(0).resolve(Age(9)), Age(0));
        assert_eq!(AgeExpr::Rel(2).delta(), Some(2));
        assert_eq!(AgeExpr::Const(1).delta(), None);
    }

    #[test]
    fn producers_and_consumers() {
        let p = mul_sum_example();
        let m = p.field_by_name("m_data").unwrap();
        let cons: Vec<_> = p.consumers_of(m).iter().map(|&(k, _)| k).collect();
        assert_eq!(cons, vec![KernelId(1), KernelId(3)]); // mul2, print
    }

    #[test]
    fn unknown_field_rejected() {
        let mut p = ProgramSpec::new();
        p.add_kernel(KernelSpec {
            id: KernelId(0),
            name: "bad".into(),
            index_vars: 0,
            has_age_var: false,
            fetches: vec![],
            stores: vec![StoreDecl {
                field: FieldId(7),
                age: AgeExpr::Const(0),
                dims: vec![IndexSel::All],
            }],
        });
        assert!(matches!(p.validate(), Err(SpecError::UnknownField { .. })));
    }

    #[test]
    fn dim_mismatch_rejected() {
        let mut p = ProgramSpec::new();
        let f = p.add_field(FieldDef::new("v", ScalarType::I32, 2));
        p.add_kernel(KernelSpec {
            id: KernelId(0),
            name: "bad".into(),
            index_vars: 0,
            has_age_var: false,
            fetches: vec![],
            stores: vec![StoreDecl {
                field: f,
                age: AgeExpr::Const(0),
                dims: vec![IndexSel::All], // 1 selector for a 2-D field
            }],
        });
        assert!(matches!(p.validate(), Err(SpecError::DimMismatch { .. })));
    }

    #[test]
    fn store_only_index_var_rejected() {
        let mut p = ProgramSpec::new();
        let f = p.add_field(FieldDef::new("v", ScalarType::I32, 1));
        p.add_kernel(KernelSpec {
            id: KernelId(0),
            name: "bad".into(),
            index_vars: 1,
            has_age_var: true,
            fetches: vec![],
            stores: vec![StoreDecl {
                field: f,
                age: AgeExpr::Rel(0),
                dims: vec![IndexSel::Var(IndexVar(0))],
            }],
        });
        assert!(matches!(
            p.validate(),
            Err(SpecError::UnboundIndexVar { .. })
        ));
    }

    #[test]
    fn non_aging_cycle_rejected() {
        // a → b → a with zero total age increment: deadlock.
        let mut p = ProgramSpec::new();
        let f1 = p.add_field(FieldDef::new("f1", ScalarType::I32, 1));
        let f2 = p.add_field(FieldDef::new("f2", ScalarType::I32, 1));
        p.add_kernel(KernelSpec {
            id: KernelId(0),
            name: "a".into(),
            index_vars: 0,
            has_age_var: true,
            fetches: vec![FetchDecl {
                field: f1,
                age: AgeExpr::Rel(0),
                dims: vec![IndexSel::All],
            }],
            stores: vec![StoreDecl {
                field: f2,
                age: AgeExpr::Rel(0),
                dims: vec![IndexSel::All],
            }],
        });
        p.add_kernel(KernelSpec {
            id: KernelId(0),
            name: "b".into(),
            index_vars: 0,
            has_age_var: true,
            fetches: vec![FetchDecl {
                field: f2,
                age: AgeExpr::Rel(0),
                dims: vec![IndexSel::All],
            }],
            stores: vec![StoreDecl {
                field: f1,
                age: AgeExpr::Rel(0), // no increment → deadlock
                dims: vec![IndexSel::All],
            }],
        });
        assert!(matches!(p.validate(), Err(SpecError::NonAgingCycle { .. })));
    }

    #[test]
    fn aging_cycle_accepted() {
        // Same shape as above but b stores f1 at age a+1, like plus5.
        let mut p = ProgramSpec::new();
        let f1 = p.add_field(FieldDef::new("f1", ScalarType::I32, 1));
        let f2 = p.add_field(FieldDef::new("f2", ScalarType::I32, 1));
        for (name, fin, fout, delta) in [("a", f1, f2, 0i64), ("b", f2, f1, 1)] {
            p.add_kernel(KernelSpec {
                id: KernelId(0),
                name: name.into(),
                index_vars: 0,
                has_age_var: true,
                fetches: vec![FetchDecl {
                    field: fin,
                    age: AgeExpr::Rel(0),
                    dims: vec![IndexSel::All],
                }],
                stores: vec![StoreDecl {
                    field: fout,
                    age: AgeExpr::Rel(delta),
                    dims: vec![IndexSel::All],
                }],
            });
        }
        p.validate().unwrap();
    }

    #[test]
    fn negative_age_delta_rejected() {
        let mut p = ProgramSpec::new();
        let f = p.add_field(FieldDef::new("v", ScalarType::I32, 1));
        p.add_kernel(KernelSpec {
            id: KernelId(0),
            name: "bad".into(),
            index_vars: 0,
            has_age_var: true,
            fetches: vec![FetchDecl {
                field: f,
                age: AgeExpr::Rel(-1),
                dims: vec![IndexSel::All],
            }],
            stores: vec![],
        });
        assert!(matches!(
            p.validate(),
            Err(SpecError::NegativeAgeDelta { .. })
        ));
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut p = ProgramSpec::new();
        p.add_field(FieldDef::new("v", ScalarType::I32, 1));
        p.add_field(FieldDef::new("v", ScalarType::I32, 1));
        assert!(matches!(
            p.validate(),
            Err(SpecError::DuplicateFieldName { .. })
        ));
    }

    #[test]
    fn source_kernel_detection() {
        let p = mul_sum_example();
        assert!(p.kernel(KernelId(0)).is_source()); // init
        assert!(!p.kernel(KernelId(1)).is_source()); // mul2
    }
}
