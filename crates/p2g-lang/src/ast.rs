//! Abstract syntax of the kernel language.

use p2g_field::ScalarType;

/// A whole source file.
#[derive(Debug, Clone, Default)]
pub(crate) struct SourceUnit {
    pub fields: Vec<FieldDecl>,
    pub timers: Vec<String>,
    pub kernels: Vec<KernelDef>,
}

/// `int32[] m_data age;` or `uint8[1584][64] y_input age;`
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FieldDecl {
    pub name: String,
    pub ty: ScalarType,
    /// One entry per dimension; `Some(n)` when an extent was given.
    pub dims: Vec<Option<usize>>,
    /// Whether the field ages (all P2G fields may age; the marker is kept
    /// for fidelity with the paper's syntax).
    pub aged: bool,
}

/// A kernel definition: `name:` followed by declarations and statements.
#[derive(Debug, Clone)]
pub(crate) struct KernelDef {
    pub name: String,
    /// `age a;` — name of the age variable, if declared.
    pub age_var: Option<String>,
    /// `index x;` — index variable names, in declaration order.
    pub index_vars: Vec<String>,
    /// `local int32 value;` / `local int32[] values;`
    pub locals: Vec<LocalDecl>,
    /// The kernel body in statement order (fetches, native blocks,
    /// stores interleaved as written).
    pub body: Vec<KernelStmt>,
}

/// `local int32[] values;`
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LocalDecl {
    pub name: String,
    pub ty: ScalarType,
    /// Array dimensionality (0 = scalar).
    pub dims: usize,
}

/// One statement in a kernel definition.
#[derive(Debug, Clone)]
pub enum KernelStmt {
    /// `fetch value = m_data(a)[x];`
    Fetch {
        target: String,
        field: String,
        age: AgeRef,
        subscripts: Vec<Subscript>,
    },
    /// `store m_data(a+1)[x] = value;`
    Store {
        field: String,
        age: AgeRef,
        subscripts: Vec<Subscript>,
        value: String,
    },
    /// `%{ ... %}`
    Native(Vec<Stmt>),
}

/// The age argument of a fetch/store: a constant or `agevar + delta`.
#[derive(Debug, Clone, PartialEq)]
pub enum AgeRef {
    Const(u64),
    Rel { var: String, delta: i64 },
}

/// One subscript of a field reference.
#[derive(Debug, Clone)]
pub enum Subscript {
    /// `[*]` — the whole dimension.
    All,
    /// `[expr]` — a single index. When the expression is exactly an index
    /// variable the compiler emits the static `Var` pattern; otherwise the
    /// index is evaluated at run time (data-dependent store target).
    Expr(Expr),
}

/// Statements of the native-block mini language.
#[derive(Debug, Clone)]
pub enum Stmt {
    /// `int i = 0;`
    Decl {
        ty: ScalarType,
        name: String,
        init: Option<Expr>,
    },
    Expr(Expr),
    Block(Vec<Stmt>),
    If {
        cond: Expr,
        then_branch: Box<Stmt>,
        else_branch: Option<Box<Stmt>>,
    },
    While {
        cond: Expr,
        body: Box<Stmt>,
    },
    For {
        init: Option<Box<Stmt>>,
        cond: Option<Expr>,
        step: Option<Expr>,
        body: Box<Stmt>,
    },
    Break,
    Continue,
    Return,
}

/// Expressions of the native-block mini language.
#[derive(Debug, Clone)]
pub enum Expr {
    Int(i64),
    Float(f64),
    Str(String),
    Var(String),
    /// `target = value`, `target += value`, ...
    Assign {
        target: String,
        op: AssignOp,
        value: Box<Expr>,
    },
    Unary {
        op: UnaryOp,
        expr: Box<Expr>,
    },
    /// `x++` / `x--` (yields the pre-increment value, like C).
    PostIncDec {
        target: String,
        inc: bool,
    },
    Binary {
        op: BinOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    Ternary {
        cond: Box<Expr>,
        then_val: Box<Expr>,
        else_val: Box<Expr>,
    },
    /// Builtin or user call: `put(values, v, i)`, `sqrt(x)`...
    Call {
        name: String,
        args: Vec<Expr>,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AssignOp {
    Set,
    Add,
    Sub,
    Mul,
    Div,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum UnaryOp {
    Neg,
    Not,
    PreInc,
    PreDec,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Eq,
    Ne,
    Lt,
    Gt,
    Le,
    Ge,
    And,
    Or,
}
