//! Lowering of the checked AST to register bytecode.
//!
//! The VM is a simple register machine: each work-item owns a register
//! file of [`Value`]s; declared variables and value
//! parameters occupy fixed slots, temporaries are bump-allocated. Control
//! flow becomes jumps; `barrier(...)` becomes a [`Instr::Barrier`] with a
//! per-site id so the VM can detect barrier divergence between
//! work-items.

use crate::ast::*;
use crate::check::{CheckedKernel, CheckedUnit, VarRef};
use crate::error::{CompileError, Pos};
use crate::vm::Value;
use std::collections::HashMap;

/// A virtual register index.
pub type Reg = usize;

/// Work-item index-space query functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WiFunc {
    GlobalId,
    LocalId,
    GroupId,
    GlobalSize,
    LocalSize,
    NumGroups,
}

/// Math builtins with a uniform register signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MathFunc {
    Min,
    Max,
    Fmin,
    Fmax,
    Clamp,
    Fabs,
    Sqrt,
    NativeRecip,
    Exp,
    Log,
}

/// One bytecode instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// `dst = constant`.
    Const { dst: Reg, val: Value },
    /// `dst = src`.
    Mov { dst: Reg, src: Reg },
    /// `dst = a op b` (operands already width/base-matched by lowering).
    Bin { op: BinOp, dst: Reg, a: Reg, b: Reg },
    /// `dst = op a`.
    Un { op: UnOp, dst: Reg, a: Reg },
    /// Scalar/vector numeric conversion to `base` keeping width.
    Convert { dst: Reg, src: Reg, base: Base },
    /// Scalar → vector broadcast.
    Broadcast { dst: Reg, src: Reg, width: u8 },
    /// Assemble a vector from scalar parts.
    BuildVec {
        dst: Reg,
        base: Base,
        parts: Vec<Reg>,
    },
    /// `dst = src.lane` (scalar extract).
    Extract { dst: Reg, src: Reg, lane: u8 },
    /// `vec.lane = src` in place.
    InsertLane { vec: Reg, src: Reg, lane: u8 },
    /// Fused multiply-add `dst = a*b + c`, elementwise.
    Mad { dst: Reg, a: Reg, b: Reg, c: Reg },
    /// Math builtin (1–3 register operands).
    Math {
        f: MathFunc,
        dst: Reg,
        args: [Reg; 3],
        n_args: u8,
    },
    /// Index-space query; `dim` register holds the dimension.
    Wi { f: WiFunc, dst: Reg, dim: Reg },
    /// Load `width` consecutive elements from global buffer `buf` at
    /// element index in `idx`.
    LoadGlobal {
        dst: Reg,
        buf: usize,
        idx: Reg,
        width: u8,
    },
    /// Store to a global buffer.
    StoreGlobal {
        buf: usize,
        idx: Reg,
        src: Reg,
        width: u8,
    },
    /// Load from a local array.
    LoadLocal {
        dst: Reg,
        arr: usize,
        idx: Reg,
        width: u8,
    },
    /// Store to a local array.
    StoreLocal {
        arr: usize,
        idx: Reg,
        src: Reg,
        width: u8,
    },
    /// Unconditional jump to instruction index.
    Jump { target: usize },
    /// Jump when the bool in `cond` is false.
    JumpIfFalse { cond: Reg, target: usize },
    /// Work-group barrier; `site` identifies the static barrier location.
    Barrier { site: u32 },
    /// `dst = cond ? a : b` (both arms already evaluated — arms in the
    /// subset are side-effect free).
    Select { dst: Reg, cond: Reg, a: Reg, b: Reg },
    /// Kernel return.
    Ret,
}

/// A lowered kernel ready for execution.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledKernel {
    pub name: String,
    pub code: Vec<Instr>,
    pub n_regs: usize,
    pub n_barrier_sites: u32,
    pub checked: CheckedKernel,
    /// Instruction positions for runtime diagnostics.
    pub positions: Vec<Pos>,
    /// Pre-scheduled trace plan from the SSA compiler pipeline, for the
    /// default [`crate::vm::Engine::Compiled`]; `None` falls back to
    /// the reference interpreter.
    pub trace: Option<crate::ir::trace::TracePlan>,
    /// Why the trace compiler declined this kernel, when it did.
    pub trace_decline: Option<String>,
}

/// Static storage class of a virtual register, assigned at compile time
/// so the compiled engine can keep values in typed per-class banks and
/// never match on [`Value`] variants in its inner loop. Booleans live in
/// the integer bank as 0/1 — every reference-interpreter coercion
/// (`as_b`, bool→float converts, bool comparisons) is value-identical
/// under that encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegClass {
    /// `i64` scalars and bools.
    Int,
    F32,
    F64,
    /// `f32` vector of the given width.
    V32(u8),
    /// `f64` vector of the given width.
    V64(u8),
}

/// Infer one storage class per register by forward dataflow over the
/// bytecode, seeded from value-parameter types. Returns `None` when any
/// register would need two classes (the trace compiler then declines
/// the kernel, which runs on the reference interpreter). Registers never written keep the
/// reference interpreter's implicit `I(0)` and class `Int`.
#[must_use]
pub fn assign_classes(k: &CompiledKernel) -> Option<Vec<RegClass>> {
    let mut cls: Vec<Option<RegClass>> = vec![None; k.n_regs];
    for p in &k.checked.value_params {
        let c = match p.ty {
            Type::Scalar(Base::Int | Base::Uint | Base::Bool) => RegClass::Int,
            Type::Scalar(Base::Float) => RegClass::F32,
            Type::Scalar(Base::Double) => RegClass::F64,
            _ => return None,
        };
        cls[p.slot] = Some(c);
    }
    // Forward passes to a fixpoint: each pass may resolve classes that
    // feed later (or, through loops, earlier) instructions.
    for _ in 0..k.code.len() + 2 {
        let mut changed = false;
        for ins in &k.code {
            let Some((dst, c)) = dst_class(ins, &cls, &k.checked) else {
                continue;
            };
            match cls[dst] {
                None => {
                    cls[dst] = Some(c);
                    changed = true;
                }
                Some(prev) if prev != c => return None,
                Some(_) => {}
            }
        }
        if !changed {
            break;
        }
    }
    let filled: Vec<Option<RegClass>> = cls
        .iter()
        .map(|c| Some(c.unwrap_or(RegClass::Int)))
        .collect();
    // Verification sweep with the Int defaults in place: a default must
    // not contradict any write site.
    for ins in &k.code {
        if let Some((dst, c)) = dst_class(ins, &filled, &k.checked) {
            if filled[dst] != Some(c) {
                return None;
            }
        }
    }
    Some(filled.into_iter().map(|c| c.expect("filled")).collect())
}

/// The class an instruction's destination takes, given (possibly still
/// unknown) operand classes. `None` means "no destination", "operands
/// not yet classified", or "statically ill-typed" — the last is fine
/// here because the trace compiler re-validates every operand's class
/// and declines ill-typed code (which the reference interpreter then
/// rejects at runtime, keeping both paths' behaviour identical).
fn dst_class(ins: &Instr, cls: &[Option<RegClass>], ck: &CheckedKernel) -> Option<(Reg, RegClass)> {
    use RegClass as C;
    let mem_class = |base: Base, width: u8| -> Option<C> {
        match (base, width) {
            (Base::Float, 1) => Some(C::F32),
            (Base::Double, 1) => Some(C::F64),
            (Base::Int | Base::Uint | Base::Bool, 1) => Some(C::Int),
            (Base::Float, w) => Some(C::V32(w)),
            (Base::Double, w) => Some(C::V64(w)),
            _ => None,
        }
    };
    match ins {
        Instr::Const { dst, val } => {
            let c = match val {
                Value::I(_) | Value::B(_) => C::Int,
                Value::F32(_) => C::F32,
                Value::F64(_) => C::F64,
                Value::V32(_, w) => C::V32(*w),
                Value::V64(_, w) => C::V64(*w),
            };
            Some((*dst, c))
        }
        Instr::Mov { dst, src } => Some((*dst, cls[*src]?)),
        Instr::Bin { op, dst, a, .. } => {
            if op.is_cmp() || op.is_logic() || op.int_only() {
                Some((*dst, C::Int))
            } else {
                Some((*dst, cls[*a]?))
            }
        }
        Instr::Un { op, dst, a } => match op {
            UnOp::Not => Some((*dst, C::Int)),
            UnOp::Neg => Some((*dst, cls[*a]?)),
        },
        Instr::Convert { dst, src, base } => {
            let c = match (cls[*src]?, base) {
                (C::Int | C::F32 | C::F64, Base::Float) => C::F32,
                (C::Int | C::F32 | C::F64, Base::Double) => C::F64,
                (C::Int | C::F32 | C::F64, Base::Int | Base::Uint) => C::Int,
                (C::Int, Base::Bool) => C::Int,
                (C::V32(w), Base::Double) => C::V64(w),
                (C::V32(w), Base::Float) => C::V32(w),
                (C::V64(w), Base::Float) => C::V32(w),
                (C::V64(w), Base::Double) => C::V64(w),
                _ => return None,
            };
            Some((*dst, c))
        }
        Instr::Broadcast { dst, src, width } => {
            let c = match cls[*src]? {
                C::F32 => C::V32(*width),
                // The reference interpreter broadcasts ints to double
                // vectors; mirror that quirk.
                C::F64 | C::Int => C::V64(*width),
                _ => return None,
            };
            Some((*dst, c))
        }
        Instr::BuildVec { dst, base, parts } => {
            let c = match base {
                Base::Float => C::V32(parts.len() as u8),
                Base::Double => C::V64(parts.len() as u8),
                _ => return None,
            };
            Some((*dst, c))
        }
        Instr::Extract { dst, src, .. } => {
            let c = match cls[*src]? {
                C::V32(_) => C::F32,
                C::V64(_) => C::F64,
                _ => return None,
            };
            Some((*dst, c))
        }
        Instr::Mad { dst, a, .. } => Some((*dst, cls[*a]?)),
        Instr::Math { dst, args, .. } => Some((*dst, cls[args[0]]?)),
        Instr::Wi { dst, .. } => Some((*dst, C::Int)),
        Instr::LoadGlobal {
            dst, buf, width, ..
        } => Some((*dst, mem_class(ck.buffer_params[*buf].base, *width)?)),
        Instr::LoadLocal {
            dst, arr, width, ..
        } => Some((*dst, mem_class(ck.local_arrays[*arr].base, *width)?)),
        Instr::Select { dst, a, .. } => Some((*dst, cls[*a]?)),
        Instr::InsertLane { .. }
        | Instr::StoreGlobal { .. }
        | Instr::StoreLocal { .. }
        | Instr::Jump { .. }
        | Instr::JumpIfFalse { .. }
        | Instr::Barrier { .. }
        | Instr::Ret => None,
    }
}

/// Lower every kernel of a checked unit.
pub fn lower(unit: &CheckedUnit) -> Result<Vec<CompiledKernel>, CompileError> {
    unit.kernels.iter().map(lower_kernel).collect()
}

struct Lowerer<'a> {
    ck: &'a CheckedKernel,
    code: Vec<Instr>,
    positions: Vec<Pos>,
    next_reg: Reg,
    barrier_sites: u32,
    /// Map from value-variable declaration site to slot; the checker
    /// already numbered them, but resolution of *uses* happens through
    /// `resolutions`, so lowering keeps its own scope map mirroring the
    /// checker's scoping.
    scopes: Vec<HashMap<String, Reg>>,
}

fn lower_kernel(ck: &CheckedKernel) -> Result<CompiledKernel, CompileError> {
    let mut lw = Lowerer {
        ck,
        code: Vec::new(),
        positions: Vec::new(),
        next_reg: ck.n_slots,
        barrier_sites: 0,
        scopes: vec![HashMap::new()],
    };
    for p in &ck.value_params {
        lw.scopes[0].insert(p.name.clone(), p.slot);
    }
    let body = ck.def.body.clone();
    lw.block(&body)?;
    lw.emit(Instr::Ret, ck.def.pos);
    let mut k = CompiledKernel {
        name: ck.def.name.clone(),
        n_regs: lw.next_reg,
        n_barrier_sites: lw.barrier_sites,
        code: lw.code,
        positions: lw.positions,
        checked: ck.clone(),
        trace: None,
        trace_decline: None,
    };
    match crate::ir::compile(&k) {
        Ok(plan) => k.trace = Some(plan),
        Err(reason) => k.trace_decline = Some(reason),
    }
    Ok(k)
}

impl<'a> Lowerer<'a> {
    fn emit(&mut self, i: Instr, pos: Pos) -> usize {
        self.code.push(i);
        self.positions.push(pos);
        self.code.len() - 1
    }

    fn fresh(&mut self) -> Reg {
        let r = self.next_reg;
        self.next_reg += 1;
        r
    }

    fn ty_of(&self, e: &Expr) -> Type {
        *self
            .ck
            .expr_types
            .get(&e.id)
            .expect("checker typed every expression")
    }

    fn slot_of_var(&self, name: &str) -> Option<Reg> {
        self.scopes.iter().rev().find_map(|s| s.get(name).copied())
    }

    fn block(&mut self, stmts: &[Stmt]) -> Result<(), CompileError> {
        for s in stmts {
            self.stmt(s)?;
        }
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt) -> Result<(), CompileError> {
        match s {
            Stmt::Empty => Ok(()),
            Stmt::Return(pos) => {
                self.emit(Instr::Ret, *pos);
                Ok(())
            }
            Stmt::Decl {
                pos,
                ty,
                name,
                array_len,
                init,
                ..
            } => {
                if array_len.is_some() {
                    // Local arrays were registered by the checker; nothing
                    // to execute. Record the name → array resolution is in
                    // `resolutions` at use sites.
                    return Ok(());
                }
                let slot = self.fresh_decl_slot(name);
                if let Some(e) = init {
                    let r = self.expr_as(e, *ty)?;
                    self.emit(Instr::Mov { dst: slot, src: r }, *pos);
                } else {
                    // Zero-initialise so reads of uninitialised variables
                    // are deterministic (stricter than C; helps testing).
                    let val = zero_of(*ty).ok_or_else(|| {
                        CompileError::new(*pos, "cannot declare variable of this type")
                    })?;
                    self.emit(Instr::Const { dst: slot, val }, *pos);
                }
                Ok(())
            }
            Stmt::Assign { pos, lhs, rhs } => self.assign(lhs, rhs, *pos),
            Stmt::Expr(e) => {
                let _ = self.expr(e)?;
                Ok(())
            }
            Stmt::If {
                pos,
                cond,
                then_body,
                else_body,
            } => {
                let c = self.expr_cond(cond)?;
                let jf = self.emit(Instr::JumpIfFalse { cond: c, target: 0 }, *pos);
                self.scopes.push(HashMap::new());
                self.block(then_body)?;
                self.scopes.pop();
                if else_body.is_empty() {
                    let end = self.code.len();
                    self.patch_jump(jf, end);
                } else {
                    let jend = self.emit(Instr::Jump { target: 0 }, *pos);
                    let else_start = self.code.len();
                    self.patch_jump(jf, else_start);
                    self.scopes.push(HashMap::new());
                    self.block(else_body)?;
                    self.scopes.pop();
                    let end = self.code.len();
                    self.patch_jump(jend, end);
                }
                Ok(())
            }
            Stmt::While { pos, cond, body } => {
                let loop_head = self.code.len();
                let c = self.expr_cond(cond)?;
                let jf = self.emit(Instr::JumpIfFalse { cond: c, target: 0 }, *pos);
                self.scopes.push(HashMap::new());
                self.block(body)?;
                self.scopes.pop();
                self.emit(Instr::Jump { target: loop_head }, *pos);
                let end = self.code.len();
                self.patch_jump(jf, end);
                Ok(())
            }
            Stmt::For {
                pos,
                init,
                cond,
                step,
                body,
            } => {
                self.scopes.push(HashMap::new());
                self.stmt(init)?;
                let loop_head = self.code.len();
                let c = self.expr_cond(cond)?;
                let jf = self.emit(Instr::JumpIfFalse { cond: c, target: 0 }, *pos);
                self.scopes.push(HashMap::new());
                self.block(body)?;
                self.scopes.pop();
                self.stmt(step)?;
                self.emit(Instr::Jump { target: loop_head }, *pos);
                let end = self.code.len();
                self.patch_jump(jf, end);
                self.scopes.pop();
                Ok(())
            }
        }
    }

    fn fresh_decl_slot(&mut self, name: &str) -> Reg {
        let slot = self.fresh();
        self.scopes
            .last_mut()
            .expect("scope stack never empty")
            .insert(name.to_string(), slot);
        slot
    }

    fn patch_jump(&mut self, at: usize, target: usize) {
        match &mut self.code[at] {
            Instr::Jump { target: t } | Instr::JumpIfFalse { target: t, .. } => *t = target,
            other => panic!("patching non-jump {other:?}"),
        }
    }

    fn assign(&mut self, lhs: &Expr, rhs: &Expr, pos: Pos) -> Result<(), CompileError> {
        let lty = self.ty_of(lhs);
        match &lhs.kind {
            ExprKind::Var(name) => {
                let slot = self
                    .slot_of_var(name)
                    .ok_or_else(|| CompileError::new(pos, format!("no slot for `{name}`")))?;
                let r = self.expr_as(rhs, lty)?;
                self.emit(Instr::Mov { dst: slot, src: r }, pos);
                Ok(())
            }
            ExprKind::Index(base, idx) => {
                let r = self.expr_as(rhs, lty)?;
                let i = self.expr(idx)?;
                match self.target_of(base)? {
                    MemTarget::Global(buf) => {
                        self.emit(
                            Instr::StoreGlobal {
                                buf,
                                idx: i,
                                src: r,
                                width: 1,
                            },
                            pos,
                        );
                    }
                    MemTarget::Local(arr) => {
                        self.emit(
                            Instr::StoreLocal {
                                arr,
                                idx: i,
                                src: r,
                                width: 1,
                            },
                            pos,
                        );
                    }
                }
                Ok(())
            }
            ExprKind::Swizzle(vec_expr, lane) => {
                let ExprKind::Var(name) = &vec_expr.kind else {
                    return Err(CompileError::new(
                        pos,
                        "can only assign components of variables",
                    ));
                };
                let slot = self
                    .slot_of_var(name)
                    .ok_or_else(|| CompileError::new(pos, format!("no slot for `{name}`")))?;
                let r = self.expr_as(rhs, lty)?;
                self.emit(
                    Instr::InsertLane {
                        vec: slot,
                        src: r,
                        lane: *lane,
                    },
                    pos,
                );
                Ok(())
            }
            _ => Err(CompileError::new(pos, "expression is not assignable")),
        }
    }

    /// Resolve the buffer/local-array a pointer expression denotes.
    fn target_of(&self, e: &Expr) -> Result<MemTarget, CompileError> {
        match &e.kind {
            ExprKind::Var(_) => match self.ck.resolutions.get(&e.id) {
                Some(VarRef::Buffer(b)) => Ok(MemTarget::Global(*b)),
                Some(VarRef::LocalArr(a)) => Ok(MemTarget::Local(*a)),
                _ => Err(CompileError::new(e.pos, "expected a pointer")),
            },
            _ => Err(CompileError::new(
                e.pos,
                "pointer expressions must be simple names",
            )),
        }
    }

    /// Evaluate an expression into a fresh register.
    fn expr(&mut self, e: &Expr) -> Result<Reg, CompileError> {
        let ty = self.ty_of(e);
        match &e.kind {
            ExprKind::IntLit(v) => {
                let dst = self.fresh();
                self.emit(
                    Instr::Const {
                        dst,
                        val: Value::I(*v),
                    },
                    e.pos,
                );
                Ok(dst)
            }
            ExprKind::FloatLit(v, is_f32) => {
                let dst = self.fresh();
                let val = if *is_f32 {
                    Value::F32(*v as f32)
                } else {
                    Value::F64(*v)
                };
                self.emit(Instr::Const { dst, val }, e.pos);
                Ok(dst)
            }
            ExprKind::Var(name) => match self.ck.resolutions.get(&e.id) {
                Some(VarRef::Value(_)) => self
                    .slot_of_var(name)
                    .ok_or_else(|| CompileError::new(e.pos, format!("no slot for `{name}`"))),
                Some(VarRef::Buffer(_)) | Some(VarRef::LocalArr(_)) => Err(CompileError::new(
                    e.pos,
                    "pointers can only be indexed or passed to vload/vstore",
                )),
                None => Err(CompileError::new(e.pos, format!("unresolved `{name}`"))),
            },
            ExprKind::Un(op, inner) => {
                let a = self.expr(inner)?;
                let dst = self.fresh();
                self.emit(Instr::Un { op: *op, dst, a }, e.pos);
                Ok(dst)
            }
            ExprKind::Bin(op, l, r) => {
                let lt = self.ty_of(l);
                let rt = self.ty_of(r);
                // Comparison/logical results are bool; arithmetic operands
                // are promoted to the result type.
                let operand_ty = if op.is_cmp() {
                    promoted(lt, rt)
                } else if op.is_logic() || op.int_only() {
                    Type::INT
                } else {
                    ty
                };
                let a = self.expr_as(l, operand_ty)?;
                let b = self.expr_as(r, operand_ty)?;
                let dst = self.fresh();
                self.emit(Instr::Bin { op: *op, dst, a, b }, e.pos);
                Ok(dst)
            }
            ExprKind::Ternary(c, x, y) => {
                let cr = self.expr_cond(c)?;
                let a = self.expr_as(x, ty)?;
                let b = self.expr_as(y, ty)?;
                let dst = self.fresh();
                self.emit(
                    Instr::Select {
                        dst,
                        cond: cr,
                        a,
                        b,
                    },
                    e.pos,
                );
                Ok(dst)
            }
            ExprKind::Index(base, idx) => {
                let i = self.expr(idx)?;
                let dst = self.fresh();
                match self.target_of(base)? {
                    MemTarget::Global(buf) => {
                        self.emit(
                            Instr::LoadGlobal {
                                dst,
                                buf,
                                idx: i,
                                width: 1,
                            },
                            e.pos,
                        );
                    }
                    MemTarget::Local(arr) => {
                        self.emit(
                            Instr::LoadLocal {
                                dst,
                                arr,
                                idx: i,
                                width: 1,
                            },
                            e.pos,
                        );
                    }
                }
                Ok(dst)
            }
            ExprKind::Swizzle(base, lane) => {
                let src = self.expr(base)?;
                let dst = self.fresh();
                self.emit(
                    Instr::Extract {
                        dst,
                        src,
                        lane: *lane,
                    },
                    e.pos,
                );
                Ok(dst)
            }
            ExprKind::Cast(to, args) => self.cast(*to, args, e.pos),
            ExprKind::Call(name, args) => self.call(name, args, ty, e.pos),
        }
    }

    /// Evaluate and convert to exactly `want`.
    fn expr_as(&mut self, e: &Expr, want: Type) -> Result<Reg, CompileError> {
        let have = self.ty_of(e);
        let r = self.expr(e)?;
        self.coerce(r, have, want, e.pos)
    }

    fn coerce(&mut self, r: Reg, have: Type, want: Type, pos: Pos) -> Result<Reg, CompileError> {
        if have == want {
            return Ok(r);
        }
        let (hb, wb) = (have.base(), want.base());
        let (hw, ww) = (have.width(), want.width());
        let mut cur = r;
        let mut cur_base = hb.ok_or_else(|| CompileError::new(pos, "cannot convert void"))?;
        let want_base = wb.ok_or_else(|| CompileError::new(pos, "cannot convert to void"))?;
        if cur_base != want_base {
            let dst = self.fresh();
            self.emit(
                Instr::Convert {
                    dst,
                    src: cur,
                    base: want_base,
                },
                pos,
            );
            cur = dst;
            cur_base = want_base;
        }
        let _ = cur_base;
        if hw == ww {
            Ok(cur)
        } else if hw == 1 {
            let dst = self.fresh();
            self.emit(
                Instr::Broadcast {
                    dst,
                    src: cur,
                    width: ww,
                },
                pos,
            );
            Ok(dst)
        } else {
            Err(CompileError::new(
                pos,
                format!("cannot narrow width {hw} to {ww}"),
            ))
        }
    }

    /// Evaluate a condition to a bool register (int conditions compare
    /// against zero).
    fn expr_cond(&mut self, e: &Expr) -> Result<Reg, CompileError> {
        let ty = self.ty_of(e);
        let r = self.expr(e)?;
        match ty {
            Type::Scalar(Base::Bool) => Ok(r),
            Type::Scalar(b) if b.is_int() => {
                let zero = self.fresh();
                self.emit(
                    Instr::Const {
                        dst: zero,
                        val: Value::I(0),
                    },
                    e.pos,
                );
                let dst = self.fresh();
                self.emit(
                    Instr::Bin {
                        op: BinOp::Ne,
                        dst,
                        a: r,
                        b: zero,
                    },
                    e.pos,
                );
                Ok(dst)
            }
            other => Err(CompileError::new(
                e.pos,
                format!("bad condition type {other:?}"),
            )),
        }
    }

    fn cast(&mut self, to: Type, args: &[Expr], pos: Pos) -> Result<Reg, CompileError> {
        match to {
            Type::Scalar(_) => {
                let have = self.ty_of(&args[0]);
                let r = self.expr(&args[0])?;
                self.coerce(r, have, to, pos)
            }
            Type::Vector(base, w) => {
                if args.len() == 1 {
                    let have = self.ty_of(&args[0]);
                    let r = self.expr(&args[0])?;
                    self.coerce(r, have, Type::Vector(base, w.min(have.width().max(w))), pos)
                } else {
                    let mut parts = Vec::with_capacity(args.len());
                    for a in args {
                        let want = Type::Scalar(base);
                        parts.push(self.expr_as(a, want)?);
                    }
                    let dst = self.fresh();
                    self.emit(Instr::BuildVec { dst, base, parts }, pos);
                    Ok(dst)
                }
            }
            _ => Err(CompileError::new(pos, "bad cast target")),
        }
    }

    fn call(
        &mut self,
        name: &str,
        args: &[Expr],
        result: Type,
        pos: Pos,
    ) -> Result<Reg, CompileError> {
        let wi = match name {
            "get_global_id" => Some(WiFunc::GlobalId),
            "get_local_id" => Some(WiFunc::LocalId),
            "get_group_id" => Some(WiFunc::GroupId),
            "get_global_size" => Some(WiFunc::GlobalSize),
            "get_local_size" => Some(WiFunc::LocalSize),
            "get_num_groups" => Some(WiFunc::NumGroups),
            _ => None,
        };
        if let Some(f) = wi {
            let dim = self.expr(&args[0])?;
            let dst = self.fresh();
            self.emit(Instr::Wi { f, dst, dim }, pos);
            return Ok(dst);
        }
        match name {
            "barrier" => {
                let site = self.barrier_sites;
                self.barrier_sites += 1;
                self.emit(Instr::Barrier { site }, pos);
                // Void: hand back a dummy register no one will read.
                Ok(self.fresh())
            }
            "mad" | "fma" => {
                let a = self.expr_as(&args[0], result)?;
                let b = self.expr_as(&args[1], result)?;
                let c = self.expr_as(&args[2], result)?;
                let dst = self.fresh();
                self.emit(Instr::Mad { dst, a, b, c }, pos);
                Ok(dst)
            }
            "min" | "max" | "fmin" | "fmax" => {
                let a = self.expr_as(&args[0], result)?;
                let b = self.expr_as(&args[1], result)?;
                let dst = self.fresh();
                let f = match name {
                    "min" => MathFunc::Min,
                    "max" => MathFunc::Max,
                    "fmin" => MathFunc::Fmin,
                    _ => MathFunc::Fmax,
                };
                self.emit(
                    Instr::Math {
                        f,
                        dst,
                        args: [a, b, b],
                        n_args: 2,
                    },
                    pos,
                );
                Ok(dst)
            }
            "clamp" => {
                let x = self.expr_as(&args[0], result)?;
                let lo = self.expr_as(&args[1], result)?;
                let hi = self.expr_as(&args[2], result)?;
                let dst = self.fresh();
                self.emit(
                    Instr::Math {
                        f: MathFunc::Clamp,
                        dst,
                        args: [x, lo, hi],
                        n_args: 3,
                    },
                    pos,
                );
                Ok(dst)
            }
            "fabs" | "sqrt" | "native_recip" | "exp" | "log" => {
                let a = self.expr(&args[0])?;
                let dst = self.fresh();
                let f = match name {
                    "fabs" => MathFunc::Fabs,
                    "sqrt" => MathFunc::Sqrt,
                    "exp" => MathFunc::Exp,
                    "log" => MathFunc::Log,
                    _ => MathFunc::NativeRecip,
                };
                self.emit(
                    Instr::Math {
                        f,
                        dst,
                        args: [a, a, a],
                        n_args: 1,
                    },
                    pos,
                );
                Ok(dst)
            }
            _ if name.starts_with("vload") => {
                let width = result.width();
                let off = self.expr(&args[0])?;
                // Element index = offset * width.
                let wreg = self.fresh();
                self.emit(
                    Instr::Const {
                        dst: wreg,
                        val: Value::I(width as i64),
                    },
                    pos,
                );
                let idx = self.fresh();
                self.emit(
                    Instr::Bin {
                        op: BinOp::Mul,
                        dst: idx,
                        a: off,
                        b: wreg,
                    },
                    pos,
                );
                let dst = self.fresh();
                match self.target_of(&args[1])? {
                    MemTarget::Global(buf) => {
                        self.emit(
                            Instr::LoadGlobal {
                                dst,
                                buf,
                                idx,
                                width,
                            },
                            pos,
                        );
                    }
                    MemTarget::Local(arr) => {
                        self.emit(
                            Instr::LoadLocal {
                                dst,
                                arr,
                                idx,
                                width,
                            },
                            pos,
                        );
                    }
                }
                Ok(dst)
            }
            _ if name.starts_with("vstore") => {
                let vty = self.ty_of(&args[0]);
                let width = vty.width();
                let src = self.expr(&args[0])?;
                let off = self.expr(&args[1])?;
                let wreg = self.fresh();
                self.emit(
                    Instr::Const {
                        dst: wreg,
                        val: Value::I(width as i64),
                    },
                    pos,
                );
                let idx = self.fresh();
                self.emit(
                    Instr::Bin {
                        op: BinOp::Mul,
                        dst: idx,
                        a: off,
                        b: wreg,
                    },
                    pos,
                );
                match self.target_of(&args[2])? {
                    MemTarget::Global(buf) => {
                        self.emit(
                            Instr::StoreGlobal {
                                buf,
                                idx,
                                src,
                                width,
                            },
                            pos,
                        );
                    }
                    MemTarget::Local(arr) => {
                        self.emit(
                            Instr::StoreLocal {
                                arr,
                                idx,
                                src,
                                width,
                            },
                            pos,
                        );
                    }
                }
                Ok(self.fresh())
            }
            other => Err(CompileError::new(
                pos,
                format!("unlowerable call `{other}`"),
            )),
        }
    }
}

enum MemTarget {
    Global(usize),
    Local(usize),
}

/// Zero value of a declarable type.
fn zero_of(ty: Type) -> Option<Value> {
    match ty {
        Type::Scalar(Base::Int) | Type::Scalar(Base::Uint) => Some(Value::I(0)),
        Type::Scalar(Base::Bool) => Some(Value::B(false)),
        Type::Scalar(Base::Float) => Some(Value::F32(0.0)),
        Type::Scalar(Base::Double) => Some(Value::F64(0.0)),
        Type::Vector(Base::Float, w) => Some(Value::v32(&vec![0.0; w as usize])),
        Type::Vector(Base::Double, w) => Some(Value::v64(&vec![0.0; w as usize])),
        _ => None,
    }
}

/// The checker's promotion, re-derived for operand typing.
fn promoted(a: Type, b: Type) -> Type {
    fn rank(b: Base) -> u8 {
        match b {
            Base::Bool => 0,
            Base::Int => 1,
            Base::Uint => 2,
            Base::Float => 3,
            Base::Double => 4,
        }
    }
    let (ab, bb) = (a.base().unwrap_or(Base::Int), b.base().unwrap_or(Base::Int));
    let base = if rank(ab) >= rank(bb) { ab } else { bb };
    let w = a.width().max(b.width());
    if w == 1 {
        Type::Scalar(base)
    } else {
        Type::Vector(base, w)
    }
}

/// Count static instruction-class frequencies of a compiled kernel —
/// used by tests and by the simulator's instruction-level statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InstrMix {
    pub mads: usize,
    pub mem_global: usize,
    pub mem_local: usize,
    pub branches: usize,
    pub barriers: usize,
    pub alu: usize,
}

/// Compute the static instruction mix.
#[must_use]
pub fn instr_mix(k: &CompiledKernel) -> InstrMix {
    let mut m = InstrMix::default();
    for i in &k.code {
        match i {
            Instr::Mad { .. } => m.mads += 1,
            Instr::LoadGlobal { .. } | Instr::StoreGlobal { .. } => m.mem_global += 1,
            Instr::LoadLocal { .. } | Instr::StoreLocal { .. } => m.mem_local += 1,
            Instr::Jump { .. } | Instr::JumpIfFalse { .. } => m.branches += 1,
            Instr::Barrier { .. } => m.barriers += 1,
            Instr::Bin { .. } | Instr::Un { .. } | Instr::Math { .. } | Instr::Select { .. } => {
                m.alu += 1
            }
            _ => {}
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check;
    use crate::parser::parse;

    fn compile(src: &str) -> Vec<CompiledKernel> {
        lower(&check(&parse(src).unwrap()).unwrap()).unwrap()
    }

    #[test]
    fn lowers_minimal_kernel() {
        let ks = compile(
            r#"__kernel void k(__global const float* a, __global float* c, int n) {
                int i = get_global_id(0);
                if (i < n) { c[i] = a[i]; }
            }"#,
        );
        let k = &ks[0];
        assert_eq!(k.name, "k");
        assert!(k.code.iter().any(|i| matches!(i, Instr::LoadGlobal { .. })));
        assert!(k
            .code
            .iter()
            .any(|i| matches!(i, Instr::StoreGlobal { .. })));
        assert!(matches!(k.code.last(), Some(Instr::Ret)));
    }

    #[test]
    fn loop_produces_backward_jump() {
        let ks = compile(
            r#"__kernel void k(__global int* x, int n) {
                for (int i = 0; i < n; i += 1) { x[i] = i; }
            }"#,
        );
        let has_back_jump = ks[0]
            .code
            .iter()
            .enumerate()
            .any(|(at, i)| matches!(i, Instr::Jump { target } if *target < at));
        assert!(has_back_jump, "for loop must jump backwards");
    }

    #[test]
    fn barrier_sites_are_numbered() {
        let ks = compile(
            r#"__kernel void k(__global double* x) {
                __local double a[8];
                a[0] = x[0];
                barrier(1);
                x[0] = a[0];
                barrier(1);
            }"#,
        );
        assert_eq!(ks[0].n_barrier_sites, 2);
        let sites: Vec<u32> = ks[0]
            .code
            .iter()
            .filter_map(|i| match i {
                Instr::Barrier { site } => Some(*site),
                _ => None,
            })
            .collect();
        assert_eq!(sites, vec![0, 1]);
    }

    #[test]
    fn int_to_double_inserts_convert() {
        let ks = compile("__kernel void k(__global double* x){ x[0] = 1 + 2; }");
        assert!(ks[0].code.iter().any(|i| matches!(
            i,
            Instr::Convert {
                base: Base::Double,
                ..
            }
        )));
    }

    #[test]
    fn scalar_vector_mul_inserts_broadcast() {
        let ks = compile(
            r#"__kernel void k(__global float* c){
                float4 v = (float4)(1.0f, 2.0f, 3.0f, 4.0f);
                float4 w = v * 2.0f;
                vstore4(w, 0, c);
            }"#,
        );
        assert!(ks[0]
            .code
            .iter()
            .any(|i| matches!(i, Instr::Broadcast { width: 4, .. })));
    }

    #[test]
    fn mad_lowered_to_fused_instr() {
        let ks = compile(
            r#"__kernel void k(__global double* x){
                double a = x[0];
                x[1] = mad(a, a, a);
            }"#,
        );
        assert!(ks[0].code.iter().any(|i| matches!(i, Instr::Mad { .. })));
    }

    #[test]
    fn vload_scales_offset_by_width() {
        let ks = compile(
            r#"__kernel void k(__global const double* a, __global double* c){
                double2 v = vload2(3, a);
                vstore2(v, 3, c);
            }"#,
        );
        let mix = instr_mix(&ks[0]);
        assert_eq!(mix.mem_global, 2);
        // offset multiplication present
        assert!(ks[0]
            .code
            .iter()
            .any(|i| matches!(i, Instr::Bin { op: BinOp::Mul, .. })));
    }

    #[test]
    fn instr_mix_counts() {
        let ks = compile(
            r#"__kernel void k(__global double* x) {
                __local double a[4];
                a[0] = x[0];
                barrier(1);
                double s = 0.0;
                for (int i = 0; i < 4; i += 1) { s = mad(a[0], 2.0, s); }
                x[0] = s;
            }"#,
        );
        let m = instr_mix(&ks[0]);
        assert_eq!(m.barriers, 1);
        assert_eq!(m.mads, 1);
        assert!(m.branches >= 2);
        assert!(m.mem_local >= 2);
    }
}
