//! The native-block interpreter.
//!
//! The paper embeds C/C++ in `%{ ... %}` blocks and compiles them natively;
//! this interpreter executes the same blocks directly (see the substitution
//! table in DESIGN.md). Semantics follow C where applicable: lexical
//! scoping, integer/float promotion, short-circuit logic, pre/post
//! increment. Arrays are accessed through `get`/`put`/`extent` builtins
//! exactly as the paper's Figure-5 listing does.

use std::collections::HashMap;

use p2g_field::{Buffer, Extents, Region, ScalarType, Value};
use p2g_runtime::KernelCtx;

use crate::ast::{AssignOp, BinOp, Expr, Stmt, UnaryOp};
use crate::compile::PrintSink;
use crate::sema::{BodyStep, KernelPlan};

/// A runtime array value.
#[derive(Debug, Clone)]
pub(crate) struct ArrayVal {
    pub ty: ScalarType,
    pub extents: Vec<usize>,
    /// Canonicalized element values (I64 for integer types, F64 for
    /// floats); cast to `ty` at field boundaries.
    pub data: Vec<f64>,
}

impl ArrayVal {
    fn empty(ty: ScalarType, dims: usize) -> ArrayVal {
        ArrayVal {
            ty,
            extents: vec![0; dims.max(1)],
            data: Vec::new(),
        }
    }

    fn from_buffer(buf: &Buffer) -> ArrayVal {
        ArrayVal {
            ty: buf.scalar_type(),
            extents: buf.shape().0.clone(),
            data: (0..buf.len()).map(|i| buf.value(i).as_f64()).collect(),
        }
    }

    fn to_buffer(&self, ty: ScalarType) -> Buffer {
        let mut buf = Buffer::zeroed(ty, Extents::new(self.extents.clone()));
        for (i, &v) in self.data.iter().enumerate() {
            let val = Value::F64(v).cast(ty);
            buf.set_value(i, val).expect("cast to target type");
        }
        buf
    }

    fn linearize(&self, idx: &[usize]) -> Option<usize> {
        Extents::new(self.extents.clone()).linearize(idx)
    }
}

/// A scalar slot canonicalized to i64 or f64 depending on its declared
/// type.
#[derive(Debug, Clone)]
pub(crate) enum RtVal {
    Int(i64),
    Float(f64),
    Str(String),
    Array(ArrayVal),
}

impl RtVal {
    fn type_name(&self) -> &'static str {
        match self {
            RtVal::Int(_) => "int",
            RtVal::Float(_) => "float",
            RtVal::Str(_) => "string",
            RtVal::Array(_) => "array",
        }
    }

    fn as_f64(&self) -> Result<f64, String> {
        match self {
            RtVal::Int(v) => Ok(*v as f64),
            RtVal::Float(v) => Ok(*v),
            other => Err(format!("expected number, got {}", other.type_name())),
        }
    }

    fn as_i64(&self) -> Result<i64, String> {
        match self {
            RtVal::Int(v) => Ok(*v),
            RtVal::Float(v) => Ok(*v as i64),
            other => Err(format!("expected number, got {}", other.type_name())),
        }
    }

    fn truthy(&self) -> Result<bool, String> {
        Ok(self.as_f64()? != 0.0)
    }

    fn display(&self) -> String {
        match self {
            RtVal::Int(v) => v.to_string(),
            RtVal::Float(v) => format!("{v}"),
            RtVal::Str(s) => s.clone(),
            RtVal::Array(a) => format!("<array{:?}>", a.extents),
        }
    }
}

/// A variable slot: value plus the declared scalar type (used to cast on
/// assignment, mirroring C's typed variables).
#[derive(Debug, Clone)]
struct Slot {
    ty: Option<ScalarType>,
    val: RtVal,
}

fn canonical(ty: ScalarType, v: f64) -> RtVal {
    if ty.is_float() {
        RtVal::Float(Value::F64(v).cast(ty).as_f64())
    } else {
        RtVal::Int(Value::F64(v).cast(ty).as_i64())
    }
}

enum Flow {
    Normal,
    Break,
    Continue,
    Return,
}

struct Interp<'a, 'c> {
    scopes: Vec<HashMap<String, Slot>>,
    ctx: &'a mut KernelCtx<'c>,
    sink: &'a PrintSink,
    kernel: &'a str,
    /// xorshift64* state for the deterministic `random()` builtin, seeded
    /// from the instance identity so results don't depend on scheduling.
    rng: u64,
}

/// Execute one kernel instance according to its plan.
pub(crate) fn run_kernel(
    plan: &KernelPlan,
    spec_stores: &[p2g_graph::spec::StoreDecl],
    field_types: &[ScalarType],
    ctx: &mut KernelCtx,
    sink: &PrintSink,
) -> Result<(), String> {
    let mut scope0: HashMap<String, Slot> = HashMap::new();

    if let Some(av) = &plan.age_var {
        scope0.insert(
            av.clone(),
            Slot {
                ty: Some(ScalarType::I64),
                val: RtVal::Int(ctx.age().0 as i64),
            },
        );
    }
    for (i, iv) in plan.index_vars.iter().enumerate() {
        scope0.insert(
            iv.clone(),
            Slot {
                ty: Some(ScalarType::I64),
                val: RtVal::Int(ctx.index(i) as i64),
            },
        );
    }
    for l in &plan.locals {
        let val = if l.dims == 0 {
            canonical(l.ty, 0.0)
        } else {
            RtVal::Array(ArrayVal::empty(l.ty, l.dims))
        };
        scope0.insert(
            l.name.clone(),
            Slot {
                ty: Some(l.ty),
                val,
            },
        );
    }
    // Bind fetch targets: 1-element buffers bind scalars when the local is
    // scalar; otherwise arrays.
    for (i, target) in plan.fetch_targets.iter().enumerate() {
        let buf = ctx.input(i);
        let decl = plan
            .locals
            .iter()
            .find(|l| &l.name == target)
            .expect("sema checked fetch targets");
        let val = if decl.dims == 0 {
            canonical(decl.ty, buf.value(0).as_f64())
        } else {
            let mut arr = ArrayVal::from_buffer(buf);
            // A fetch like f(a)[x][*] produces a [1, n] slice; squeeze
            // size-1 dimensions until the rank matches the local's
            // declared rank (flatten entirely for 1-D locals).
            while arr.extents.len() > decl.dims && arr.extents.contains(&1) {
                let pos = arr
                    .extents
                    .iter()
                    .position(|&e| e == 1)
                    .expect("contains 1");
                arr.extents.remove(pos);
            }
            if decl.dims == 1 && arr.extents.len() > 1 {
                arr.extents = vec![arr.data.len()];
            }
            RtVal::Array(arr)
        };
        scope0.get_mut(target).expect("local exists").val = val;
    }

    // Deterministic per-instance RNG seed.
    let mut seed = 0xcbf29ce484222325u64;
    for b in plan.name.bytes() {
        seed = (seed ^ b as u64).wrapping_mul(0x100000001b3);
    }
    seed = (seed ^ ctx.age().0).wrapping_mul(0x100000001b3);
    for i in 0..plan.index_vars.len() {
        seed = (seed ^ ctx.index(i) as u64).wrapping_mul(0x100000001b3);
    }

    let mut interp = Interp {
        scopes: vec![scope0],
        ctx,
        sink,
        kernel: &plan.name,
        rng: seed | 1,
    };

    for step in &plan.steps {
        match step {
            BodyStep::Native(stmts) => {
                for s in stmts {
                    if !matches!(interp.stmt(s)?, Flow::Normal) {
                        break;
                    }
                }
            }
            BodyStep::Store(sp) => {
                interp.run_store(sp, spec_stores, field_types)?;
            }
        }
    }
    Ok(())
}

impl Interp<'_, '_> {
    fn lookup(&self, name: &str) -> Option<&Slot> {
        self.scopes.iter().rev().find_map(|s| s.get(name))
    }

    fn lookup_mut(&mut self, name: &str) -> Option<&mut Slot> {
        self.scopes.iter_mut().rev().find_map(|s| s.get_mut(name))
    }

    fn assign(&mut self, name: &str, raw: RtVal) -> Result<RtVal, String> {
        let slot = self
            .lookup_mut(name)
            .ok_or_else(|| format!("assignment to undeclared variable '{name}'"))?;
        let val = match (&slot.ty, &raw) {
            (Some(ty), RtVal::Int(_) | RtVal::Float(_)) => canonical(*ty, raw.as_f64()?),
            _ => raw,
        };
        slot.val = val.clone();
        Ok(val)
    }

    fn run_store(
        &mut self,
        sp: &crate::sema::StorePlan,
        spec_stores: &[p2g_graph::spec::StoreDecl],
        field_types: &[ScalarType],
    ) -> Result<(), String> {
        let decl = &spec_stores[sp.store_idx];
        let field_ty = field_types[decl.field.idx()];
        let value = self
            .lookup(&sp.value_var)
            .ok_or_else(|| format!("store of undeclared variable '{}'", sp.value_var))?
            .val
            .clone();
        let buffer = match value {
            RtVal::Array(a) => a.to_buffer(field_ty),
            RtVal::Int(v) => Buffer::scalar(Value::F64(v as f64).cast(field_ty)),
            RtVal::Float(v) => Buffer::scalar(Value::F64(v).cast(field_ty)),
            RtVal::Str(_) => return Err("cannot store a string into a field".into()),
        };
        // Build the absolute target region: static selectors from the
        // declaration, dynamic subscripts evaluated now.
        let mut dims = Vec::with_capacity(decl.dims.len());
        for (d, sel) in decl.dims.iter().enumerate() {
            let dyn_expr = sp.dyn_subs.get(d).and_then(|o| o.as_ref());
            dims.push(match (sel, dyn_expr) {
                (_, Some(e)) => {
                    let v = self.eval(e)?.as_i64()?;
                    if v < 0 {
                        return Err(format!("negative store index {v}"));
                    }
                    p2g_field::DimSel::Index(v as usize)
                }
                (p2g_graph::spec::IndexSel::Var(v), None) => {
                    p2g_field::DimSel::Index(self.ctx.index(v.0 as usize))
                }
                (p2g_graph::spec::IndexSel::Const(c), None) => p2g_field::DimSel::Index(*c),
                (p2g_graph::spec::IndexSel::All, None) => p2g_field::DimSel::All,
            });
        }
        self.ctx.store_region(sp.store_idx, Region(dims), buffer);
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt) -> Result<Flow, String> {
        match s {
            Stmt::Decl { ty, name, init } => {
                let val = match init {
                    Some(e) => {
                        let v = self.eval(e)?;
                        canonical(*ty, v.as_f64()?)
                    }
                    None => canonical(*ty, 0.0),
                };
                self.scopes
                    .last_mut()
                    .expect("at least one scope")
                    .insert(name.clone(), Slot { ty: Some(*ty), val });
                Ok(Flow::Normal)
            }
            Stmt::Expr(e) => {
                self.eval(e)?;
                Ok(Flow::Normal)
            }
            Stmt::Block(stmts) => {
                self.scopes.push(HashMap::new());
                let mut flow = Flow::Normal;
                for s in stmts {
                    flow = self.stmt(s)?;
                    if !matches!(flow, Flow::Normal) {
                        break;
                    }
                }
                self.scopes.pop();
                Ok(flow)
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                if self.eval(cond)?.truthy()? {
                    self.stmt(then_branch)
                } else if let Some(e) = else_branch {
                    self.stmt(e)
                } else {
                    Ok(Flow::Normal)
                }
            }
            Stmt::While { cond, body } => {
                while self.eval(cond)?.truthy()? {
                    match self.stmt(body)? {
                        Flow::Break => break,
                        Flow::Return => return Ok(Flow::Return),
                        Flow::Normal | Flow::Continue => {}
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                self.scopes.push(HashMap::new());
                let result = (|| {
                    if let Some(i) = init {
                        self.stmt(i)?;
                    }
                    loop {
                        if let Some(c) = cond {
                            if !self.eval(c)?.truthy()? {
                                break;
                            }
                        }
                        match self.stmt(body)? {
                            Flow::Break => break,
                            Flow::Return => return Ok(Flow::Return),
                            Flow::Normal | Flow::Continue => {}
                        }
                        if let Some(st) = step {
                            self.eval(st)?;
                        }
                    }
                    Ok(Flow::Normal)
                })();
                self.scopes.pop();
                result
            }
            Stmt::Break => Ok(Flow::Break),
            Stmt::Continue => Ok(Flow::Continue),
            Stmt::Return => Ok(Flow::Return),
        }
    }

    fn eval(&mut self, e: &Expr) -> Result<RtVal, String> {
        match e {
            Expr::Int(v) => Ok(RtVal::Int(*v)),
            Expr::Float(v) => Ok(RtVal::Float(*v)),
            Expr::Str(s) => Ok(RtVal::Str(s.clone())),
            Expr::Var(name) => self
                .lookup(name)
                .map(|s| s.val.clone())
                .ok_or_else(|| format!("unknown variable '{name}'")),
            Expr::Assign { target, op, value } => {
                let rhs = self.eval(value)?;
                let new = match op {
                    AssignOp::Set => rhs,
                    _ => {
                        let cur = self
                            .lookup(target)
                            .ok_or_else(|| format!("unknown variable '{target}'"))?
                            .val
                            .clone();
                        let bop = match op {
                            AssignOp::Add => BinOp::Add,
                            AssignOp::Sub => BinOp::Sub,
                            AssignOp::Mul => BinOp::Mul,
                            AssignOp::Div => BinOp::Div,
                            AssignOp::Set => unreachable!(),
                        };
                        numeric_bin(bop, &cur, &rhs)?
                    }
                };
                self.assign(target, new)
            }
            Expr::Unary { op, expr } => match op {
                UnaryOp::Neg => {
                    let v = self.eval(expr)?;
                    Ok(match v {
                        RtVal::Int(i) => RtVal::Int(-i),
                        RtVal::Float(f) => RtVal::Float(-f),
                        other => return Err(format!("cannot negate {}", other.type_name())),
                    })
                }
                UnaryOp::Not => {
                    let v = self.eval(expr)?.truthy()?;
                    Ok(RtVal::Int(if v { 0 } else { 1 }))
                }
                UnaryOp::PreInc | UnaryOp::PreDec => {
                    let name = match expr.as_ref() {
                        Expr::Var(n) => n.clone(),
                        _ => return Err("++/-- needs a variable".into()),
                    };
                    let cur = self
                        .lookup(&name)
                        .ok_or_else(|| format!("unknown variable '{name}'"))?
                        .val
                        .as_f64()?;
                    let delta = if *op == UnaryOp::PreInc { 1.0 } else { -1.0 };
                    self.assign(&name, RtVal::Float(cur + delta))
                }
            },
            Expr::PostIncDec { target, inc } => {
                let cur = self
                    .lookup(target)
                    .ok_or_else(|| format!("unknown variable '{target}'"))?
                    .val
                    .clone();
                let delta = if *inc { 1.0 } else { -1.0 };
                self.assign(target, RtVal::Float(cur.as_f64()? + delta))?;
                Ok(cur)
            }
            Expr::Binary { op, lhs, rhs } => match op {
                BinOp::And => {
                    let l = self.eval(lhs)?.truthy()?;
                    if !l {
                        return Ok(RtVal::Int(0));
                    }
                    Ok(RtVal::Int(if self.eval(rhs)?.truthy()? { 1 } else { 0 }))
                }
                BinOp::Or => {
                    let l = self.eval(lhs)?.truthy()?;
                    if l {
                        return Ok(RtVal::Int(1));
                    }
                    Ok(RtVal::Int(if self.eval(rhs)?.truthy()? { 1 } else { 0 }))
                }
                _ => {
                    let l = self.eval(lhs)?;
                    let r = self.eval(rhs)?;
                    numeric_bin(*op, &l, &r)
                }
            },
            Expr::Ternary {
                cond,
                then_val,
                else_val,
            } => {
                if self.eval(cond)?.truthy()? {
                    self.eval(then_val)
                } else {
                    self.eval(else_val)
                }
            }
            Expr::Call { name, args } => self.call(name, args),
        }
    }

    fn call(&mut self, name: &str, args: &[Expr]) -> Result<RtVal, String> {
        match name {
            // put(arr, value, idx...)
            "put" => {
                let arr_name = arg_var(args, 0, "put")?;
                let value = self.eval(&args[1])?.as_f64()?;
                let mut idx = Vec::with_capacity(args.len() - 2);
                for a in &args[2..] {
                    idx.push(self.eval(a)?.as_i64()? as usize);
                }
                let slot = self
                    .lookup_mut(&arr_name)
                    .ok_or_else(|| format!("unknown array '{arr_name}'"))?;
                let RtVal::Array(arr) = &mut slot.val else {
                    return Err(format!("'{arr_name}' is not an array"));
                };
                if idx.len() != arr.extents.len() {
                    return Err(format!(
                        "put: array '{arr_name}' has {} dims, {} indices given",
                        arr.extents.len(),
                        idx.len()
                    ));
                }
                // Implicit growth for 1-D arrays (mirrors the paper's
                // implicitly-resized local fields).
                if arr.extents.len() == 1 && idx[0] >= arr.extents[0] {
                    arr.extents[0] = idx[0] + 1;
                    arr.data.resize(idx[0] + 1, 0.0);
                }
                let lin = arr
                    .linearize(&idx)
                    .ok_or_else(|| format!("put: index {idx:?} out of bounds"))?;
                arr.data[lin] = value;
                Ok(RtVal::Int(0))
            }
            "get" => {
                let arr_name = arg_var(args, 0, "get")?;
                let mut idx = Vec::with_capacity(args.len() - 1);
                for a in &args[1..] {
                    idx.push(self.eval(a)?.as_i64()? as usize);
                }
                let slot = self
                    .lookup(&arr_name)
                    .ok_or_else(|| format!("unknown array '{arr_name}'"))?;
                let RtVal::Array(arr) = &slot.val else {
                    return Err(format!("'{arr_name}' is not an array"));
                };
                let lin = arr.linearize(&idx).ok_or_else(|| {
                    format!("get: index {idx:?} out of bounds of {:?}", arr.extents)
                })?;
                let v = arr.data[lin];
                Ok(if arr.ty.is_float() {
                    RtVal::Float(v)
                } else {
                    RtVal::Int(v as i64)
                })
            }
            "extent" => {
                let arr_name = arg_var(args, 0, "extent")?;
                let d = self.eval(&args[1])?.as_i64()? as usize;
                let slot = self
                    .lookup(&arr_name)
                    .ok_or_else(|| format!("unknown array '{arr_name}'"))?;
                let RtVal::Array(arr) = &slot.val else {
                    return Err(format!("'{arr_name}' is not an array"));
                };
                arr.extents
                    .get(d)
                    .map(|&e| RtVal::Int(e as i64))
                    .ok_or_else(|| format!("extent: dim {d} out of range"))
            }
            "len" => {
                let arr_name = arg_var(args, 0, "len")?;
                let slot = self
                    .lookup(&arr_name)
                    .ok_or_else(|| format!("unknown array '{arr_name}'"))?;
                let RtVal::Array(arr) = &slot.val else {
                    return Err(format!("'{arr_name}' is not an array"));
                };
                Ok(RtVal::Int(arr.data.len() as i64))
            }
            "resize" => {
                let arr_name = arg_var(args, 0, "resize")?;
                let mut dims = Vec::with_capacity(args.len() - 1);
                for a in &args[1..] {
                    dims.push(self.eval(a)?.as_i64()? as usize);
                }
                let slot = self
                    .lookup_mut(&arr_name)
                    .ok_or_else(|| format!("unknown array '{arr_name}'"))?;
                let RtVal::Array(arr) = &mut slot.val else {
                    return Err(format!("'{arr_name}' is not an array"));
                };
                arr.extents = dims;
                let total: usize = arr.extents.iter().product();
                arr.data = vec![0.0; total];
                Ok(RtVal::Int(0))
            }
            "print" | "println" => {
                let mut parts = Vec::with_capacity(args.len());
                for a in args {
                    parts.push(self.eval(a)?.display());
                }
                let mut text = parts.join(" ");
                if name == "println" {
                    text.push('\n');
                } else if !text.is_empty() {
                    text.push(' ');
                }
                self.sink.write(&text);
                Ok(RtVal::Int(0))
            }
            "timer_reset" => {
                let t = self.eval(&args[0])?;
                let RtVal::Str(tname) = t else {
                    return Err("timer_reset expects a timer name string".into());
                };
                self.ctx.reset_timer(&tname);
                Ok(RtVal::Int(0))
            }
            "timer_expired" => {
                let t = self.eval(&args[0])?;
                let RtVal::Str(tname) = t else {
                    return Err("timer_expired expects a timer name string".into());
                };
                let ms = self.eval(&args[1])?.as_i64()?;
                let expired = self
                    .ctx
                    .deadline_expired(&tname, std::time::Duration::from_millis(ms.max(0) as u64));
                Ok(RtVal::Int(if expired { 1 } else { 0 }))
            }
            "random" => {
                // xorshift64*, canonical deterministic PRNG.
                self.rng ^= self.rng >> 12;
                self.rng ^= self.rng << 25;
                self.rng ^= self.rng >> 27;
                let x = self.rng.wrapping_mul(0x2545F4914F6CDD1D);
                Ok(RtVal::Float((x >> 11) as f64 / (1u64 << 53) as f64))
            }
            "sqrt" | "abs" | "floor" | "ceil" | "exp" | "log" => {
                let v = self.eval(&args[0])?.as_f64()?;
                let r = match name {
                    "sqrt" => v.sqrt(),
                    "abs" => v.abs(),
                    "floor" => v.floor(),
                    "ceil" => v.ceil(),
                    "exp" => v.exp(),
                    "log" => v.ln(),
                    _ => unreachable!(),
                };
                Ok(RtVal::Float(r))
            }
            "pow" | "min" | "max" => {
                let a = self.eval(&args[0])?;
                let b = self.eval(&args[1])?;
                let (af, bf) = (a.as_f64()?, b.as_f64()?);
                let ints = matches!((&a, &b), (RtVal::Int(_), RtVal::Int(_)));
                let r = match name {
                    "pow" => af.powf(bf),
                    "min" => af.min(bf),
                    "max" => af.max(bf),
                    _ => unreachable!(),
                };
                Ok(if ints && name != "pow" {
                    RtVal::Int(r as i64)
                } else {
                    RtVal::Float(r)
                })
            }
            other => Err(format!(
                "unknown function '{other}' in kernel '{}'",
                self.kernel
            )),
        }
    }
}

fn arg_var(args: &[Expr], i: usize, fun: &str) -> Result<String, String> {
    match args.get(i) {
        Some(Expr::Var(n)) => Ok(n.clone()),
        _ => Err(format!("{fun}: argument {i} must be an array variable")),
    }
}

fn numeric_bin(op: BinOp, l: &RtVal, r: &RtVal) -> Result<RtVal, String> {
    let both_int = matches!((l, r), (RtVal::Int(_), RtVal::Int(_)));
    if both_int {
        let (a, b) = (l.as_i64()?, r.as_i64()?);
        Ok(match op {
            BinOp::Add => RtVal::Int(a.wrapping_add(b)),
            BinOp::Sub => RtVal::Int(a.wrapping_sub(b)),
            BinOp::Mul => RtVal::Int(a.wrapping_mul(b)),
            BinOp::Div => {
                if b == 0 {
                    return Err("integer division by zero".into());
                }
                RtVal::Int(a.wrapping_div(b))
            }
            BinOp::Rem => {
                if b == 0 {
                    return Err("integer remainder by zero".into());
                }
                RtVal::Int(a.wrapping_rem(b))
            }
            BinOp::Eq => RtVal::Int((a == b) as i64),
            BinOp::Ne => RtVal::Int((a != b) as i64),
            BinOp::Lt => RtVal::Int((a < b) as i64),
            BinOp::Gt => RtVal::Int((a > b) as i64),
            BinOp::Le => RtVal::Int((a <= b) as i64),
            BinOp::Ge => RtVal::Int((a >= b) as i64),
            BinOp::And | BinOp::Or => unreachable!("short-circuit handled above"),
        })
    } else {
        let (a, b) = (l.as_f64()?, r.as_f64()?);
        Ok(match op {
            BinOp::Add => RtVal::Float(a + b),
            BinOp::Sub => RtVal::Float(a - b),
            BinOp::Mul => RtVal::Float(a * b),
            BinOp::Div => RtVal::Float(a / b),
            BinOp::Rem => RtVal::Float(a % b),
            BinOp::Eq => RtVal::Int((a == b) as i64),
            BinOp::Ne => RtVal::Int((a != b) as i64),
            BinOp::Lt => RtVal::Int((a < b) as i64),
            BinOp::Gt => RtVal::Int((a > b) as i64),
            BinOp::Le => RtVal::Int((a <= b) as i64),
            BinOp::Ge => RtVal::Int((a >= b) as i64),
            BinOp::And | BinOp::Or => unreachable!("short-circuit handled above"),
        })
    }
}
