//! A typed SSA compiler pipeline over the clc register bytecode.
//!
//! The reference interpreter ([`crate::vm`]) decodes one instruction
//! per work-item per step; for the generated GEMM kernels
//! that dispatch overhead dwarfs the arithmetic. This module compiles
//! the bytecode into **pre-scheduled trace code** executed by
//! [`crate::vm::Engine::Compiled`]:
//!
//! 1. [`build`] — bytecode → control-flow graph → typed SSA in
//!    phi-free block-argument form. Every basic block carries a frozen
//!    [`Cost`]: the exact per-work-item [`crate::vm::DynStats`] delta
//!    the reference interpreter charges for one execution of the
//!    block's source instructions. Passes may rewrite the ops freely;
//!    costs (and therefore stats and step-limit outcomes) never change.
//! 2. [`passes`] — constant folding (using the reference
//!    interpreter's own arithmetic, so folded results are bit-exact),
//!    identity-conversion strength reduction, block-local common
//!    subexpression elimination, dead-code elimination, CFG
//!    simplification, full unrolling of compile-time-constant
//!    work-item loops, forwarding of pass-through block parameters to
//!    the one value they carry, loop-invariant code motion out of the
//!    remaining runtime-bounded loops, and fusion of
//!    `extract → broadcast → mad` triples into single lane-indexed mad
//!    ops.
//! 3. [`trace`] — divergence analysis (values provably identical
//!    across the work-items of a group run once per group; per-item
//!    values run in a tight loop over all work-items inside one
//!    dispatched op; branches on per-item conditions get their
//!    reconvergence points), race-freedom proofs (read-only buffers
//!    and phase-proved local loads skip the race tables), linear-scan
//!    register allocation onto typed SoA slot banks, and emission of a
//!    [`trace::TracePlan`].
//! 4. [`engine`] — binds a plan to a launch's geometry and runs
//!    work-groups in parallel, block by block, with divergent branches
//!    under per-work-item masks: per-op decode is paid once per *group*
//!    instead of once per work-item step.
//!
//! The compiler declines a barrier under a divergent branch (and a few
//! rarities like non-constant `get_global_id` dimensions); those
//! kernels run on the reference interpreter, which remains the
//! bit-for-bit oracle.

pub mod build;
pub(crate) mod engine;
pub mod passes;
pub mod print;
pub mod trace;

use crate::ast::{Base, BinOp, UnOp};
use crate::lower::{CompiledKernel, MathFunc, Reg, RegClass, WiFunc};
use crate::vm::Value;

/// An SSA value id.
pub type Val = u32;

/// A non-terminator SSA operation. Operands are [`Val`]s; destination
/// values are defined in [`Op::dst`]. `InsertLane`'s in-place update
/// becomes a pure `Insert` producing a fresh vector value.
#[derive(Debug, Clone, PartialEq)]
pub enum OpKind {
    Const(Value),
    Bin(BinOp, Val, Val),
    Un(UnOp, Val),
    Convert(Val, Base),
    Broadcast(Val, u8),
    BuildVec(Base, Vec<Val>),
    Extract(Val, u8),
    /// `(vector, scalar, lane)` — new vector with one lane replaced.
    Insert(Val, Val, u8),
    Mad(Val, Val, Val),
    /// `(vector, lane, mul, add)` — a `Mad` whose multiplicand is
    /// `broadcast(extract(vector, lane))`, fused by [`passes::fuse`]
    /// so the trace reads the lane directly instead of materialising
    /// the scalar and the broadcast vector.
    MadLane(Val, u8, Val, Val),
    Math(MathFunc, [Val; 3], u8),
    Wi(WiFunc, Val),
    LoadGlobal {
        buf: usize,
        idx: Val,
        width: u8,
    },
    StoreGlobal {
        buf: usize,
        idx: Val,
        src: Val,
        width: u8,
    },
    LoadLocal {
        arr: usize,
        idx: Val,
        width: u8,
    },
    StoreLocal {
        arr: usize,
        idx: Val,
        src: Val,
        width: u8,
    },
    Select(Val, Val, Val),
}

#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    pub dst: Option<Val>,
    pub kind: OpKind,
}

/// A control-flow edge carrying the successor's block arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Edge {
    pub to: usize,
    pub args: Vec<Val>,
}

/// Block terminator. `Barrier` is a terminator because it ends a
/// race-detection phase and re-synchronises the group.
#[derive(Debug, Clone, PartialEq)]
pub enum Term {
    Br(Edge),
    CondBr { cond: Val, t: Edge, f: Edge },
    Barrier { site: u32, next: Edge },
    Ret,
}

impl Term {
    pub fn edges(&self) -> Vec<&Edge> {
        match self {
            Term::Br(e) | Term::Barrier { next: e, .. } => vec![e],
            Term::CondBr { t, f, .. } => vec![t, f],
            Term::Ret => vec![],
        }
    }

    pub fn edges_mut(&mut self) -> Vec<&mut Edge> {
        match self {
            Term::Br(e) | Term::Barrier { next: e, .. } => vec![e],
            Term::CondBr { t, f, .. } => vec![t, f],
            Term::Ret => vec![],
        }
    }
}

/// Frozen per-work-item `DynStats` delta for one execution of a block,
/// captured from the source bytecode at IR construction. The `instrs`
/// field doubles as the per-phase step count for step-limit parity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Cost {
    pub instrs: u64,
    pub alu: u64,
    pub mads: u64,
    pub mem_global_instrs: u64,
    pub mem_global_bytes: u64,
    pub mem_local_instrs: u64,
    pub mem_local_bytes: u64,
}

impl Cost {
    pub fn add(&mut self, o: &Cost) {
        self.instrs += o.instrs;
        self.alu += o.alu;
        self.mads += o.mads;
        self.mem_global_instrs += o.mem_global_instrs;
        self.mem_global_bytes += o.mem_global_bytes;
        self.mem_local_instrs += o.mem_local_instrs;
        self.mem_local_bytes += o.mem_local_bytes;
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    pub params: Vec<Val>,
    pub ops: Vec<Op>,
    pub term: Term,
    pub cost: Cost,
}

/// An SSA function: blocks (entry is block 0), one storage class per
/// value, and the source register behind each entry-block parameter
/// (seeded from the launch's initial register file).
#[derive(Debug, Clone, PartialEq)]
pub struct Func {
    pub blocks: Vec<Block>,
    pub classes: Vec<RegClass>,
    pub entry_regs: Vec<Reg>,
}

impl Func {
    pub fn new_val(&mut self, class: RegClass) -> Val {
        self.classes.push(class);
        (self.classes.len() - 1) as Val
    }

    pub fn n_vals(&self) -> usize {
        self.classes.len()
    }

    /// Predecessor block indices, per block.
    pub fn preds(&self) -> Vec<Vec<usize>> {
        let mut p = vec![Vec::new(); self.blocks.len()];
        for (bi, b) in self.blocks.iter().enumerate() {
            for e in b.term.edges() {
                if !p[e.to].contains(&bi) {
                    p[e.to].push(bi);
                }
            }
        }
        p
    }
}

impl OpKind {
    /// Operand values, in a fixed order.
    pub fn operands(&self) -> Vec<Val> {
        let mut out = Vec::new();
        self.for_each_operand(|v| out.push(v));
        out
    }

    /// Call `f` on every operand, in [`operands`](Self::operands)
    /// order, without allocating.
    pub fn for_each_operand(&self, mut f: impl FnMut(Val)) {
        match self {
            OpKind::Const(_) => {}
            OpKind::Un(_, a)
            | OpKind::Convert(a, _)
            | OpKind::Broadcast(a, _)
            | OpKind::Extract(a, _)
            | OpKind::Wi(_, a)
            | OpKind::LoadGlobal { idx: a, .. }
            | OpKind::LoadLocal { idx: a, .. } => f(*a),
            OpKind::Bin(_, a, b)
            | OpKind::StoreGlobal { idx: a, src: b, .. }
            | OpKind::StoreLocal { idx: a, src: b, .. }
            | OpKind::Insert(a, b, _) => {
                f(*a);
                f(*b);
            }
            OpKind::Mad(a, b, c) | OpKind::Select(a, b, c) | OpKind::MadLane(a, _, b, c) => {
                f(*a);
                f(*b);
                f(*c);
            }
            OpKind::Math(_, args, n) => args[..*n as usize].iter().copied().for_each(f),
            OpKind::BuildVec(_, parts) => parts.iter().copied().for_each(f),
        }
    }

    /// Rewrite every operand through `f`.
    pub fn map_operands(&mut self, f: &mut dyn FnMut(Val) -> Val) {
        match self {
            OpKind::Const(_) => {}
            OpKind::Un(_, a)
            | OpKind::Convert(a, _)
            | OpKind::Broadcast(a, _)
            | OpKind::Extract(a, _)
            | OpKind::Wi(_, a)
            | OpKind::LoadGlobal { idx: a, .. }
            | OpKind::LoadLocal { idx: a, .. } => *a = f(*a),
            OpKind::Bin(_, a, b)
            | OpKind::StoreGlobal { idx: a, src: b, .. }
            | OpKind::StoreLocal { idx: a, src: b, .. }
            | OpKind::Insert(a, b, _) => {
                *a = f(*a);
                *b = f(*b);
            }
            OpKind::Mad(a, b, c) | OpKind::Select(a, b, c) | OpKind::MadLane(a, _, b, c) => {
                *a = f(*a);
                *b = f(*b);
                *c = f(*c);
            }
            OpKind::Math(_, args, n) => {
                for a in args[..*n as usize].iter_mut() {
                    *a = f(*a);
                }
            }
            OpKind::BuildVec(_, parts) => {
                for p in parts.iter_mut() {
                    *p = f(*p);
                }
            }
        }
    }

    /// Whether the op touches memory or race tables — such ops are
    /// never removed, reordered across each other, or deduplicated.
    pub fn is_mem(&self) -> bool {
        matches!(
            self,
            OpKind::LoadGlobal { .. }
                | OpKind::StoreGlobal { .. }
                | OpKind::LoadLocal { .. }
                | OpKind::StoreLocal { .. }
        )
    }
}

/// Per-pass instrumentation, surfaced through `clgemm-trace` counters
/// and the IR printer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompileStats {
    /// SSA ops immediately after construction.
    pub ops_in: u64,
    /// SSA ops after the full pipeline.
    pub ops_out: u64,
    pub folded: u64,
    pub cse: u64,
    pub dce: u64,
    pub blocks_merged: u64,
    pub unrolled_loops: u64,
    pub unrolled_iters: u64,
    /// Block parameters replaced by the one value they carry, by
    /// `forward`.
    pub forwarded: u64,
    /// Loop-invariant ops moved to a preheader by `licm`.
    pub hoisted: u64,
    /// `extract → broadcast → mad` triples fused into `MadLane`.
    pub fused: u64,
    /// Values pushed past the 64-slots-per-bank soft budget by the
    /// linear-scan allocator (a pressure metric, not actual memory
    /// spills — banks grow as needed).
    pub spills: u64,
}

/// Compile a lowered kernel to a trace plan, or explain why the
/// compiler declines it (the kernel then runs on the reference
/// interpreter).
///
/// # Errors
/// A human-readable decline reason; declining is not a failure mode,
/// just a routing decision.
pub fn compile(k: &CompiledKernel) -> Result<trace::TracePlan, String> {
    compile_parts(k).map(|(_, plan)| plan)
}

/// Like [`compile`] but also returns the optimised SSA function, for
/// the disassembler's IR printer.
///
/// # Errors
/// Same decline reasons as [`compile`].
pub fn compile_parts(k: &CompiledKernel) -> Result<(Func, trace::TracePlan), String> {
    let _span = clgemm_trace::span!("clc.compile");
    let mut stats = CompileStats::default();
    let mut f = {
        let _s = clgemm_trace::span!("clc.compile.build");
        let classes = crate::lower::assign_classes(k)
            .ok_or_else(|| "register classes not assignable".to_string())?;
        build::build(k, &classes)?
    };
    stats.ops_in = count_ops(&f);
    for (name, pass) in PIPELINE {
        let _s = clgemm_trace::span!(name);
        pass(&mut f, &mut stats);
    }
    stats.ops_out = count_ops(&f);
    let races = {
        let _s = clgemm_trace::span!("clc.compile.races");
        trace::race_facts(k, &f)
    };
    let plan = {
        let _s = clgemm_trace::span!("clc.compile.emit");
        trace::emit(k, &f, races, stats)?
    };
    record_compile_metrics(&plan.stats);
    Ok((f, plan))
}

type Pass = fn(&mut Func, &mut CompileStats);

/// The pass order, each under its own `clc.compile.<pass>` span.
const PIPELINE: [(&str, Pass); 7] = [
    ("clc.compile.simplify", passes::simplify),
    ("clc.compile.clean", passes::clean),
    ("clc.compile.unroll", passes::unroll),
    ("clc.compile.forward", passes::forward),
    ("clc.compile.licm", passes::licm),
    ("clc.compile.fuse", passes::fuse),
    ("clc.compile.clean", passes::clean),
];

fn count_ops(f: &Func) -> u64 {
    f.blocks.iter().map(|b| b.ops.len() as u64).sum()
}

/// Per-pass counters, registered only at first non-zero use so the
/// dead-metric lint stays meaningful.
fn record_compile_metrics(s: &CompileStats) {
    if !clgemm_trace::enabled() {
        return;
    }
    let reg = clgemm_trace::Registry::global();
    reg.counter("clc_compile_total").inc();
    for (name, v) in [
        ("clc_compile_ops_in_total", s.ops_in),
        ("clc_compile_ops_out_total", s.ops_out),
        ("clc_compile_folded_total", s.folded),
        ("clc_compile_cse_total", s.cse),
        ("clc_compile_dce_total", s.dce),
        ("clc_compile_unrolled_loops_total", s.unrolled_loops),
        ("clc_compile_unrolled_iters_total", s.unrolled_iters),
        ("clc_compile_forwarded_total", s.forwarded),
        ("clc_compile_hoisted_total", s.hoisted),
        ("clc_compile_fused_total", s.fused),
        ("clc_compile_spills_total", s.spills),
    ] {
        if v > 0 {
            reg.counter(name).add(v);
        }
    }
}
