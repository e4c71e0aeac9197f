//! The optimisation pipeline over [`Func`].
//!
//! Ordering rationale (also documented in DESIGN.md):
//!
//! 1. `simplify` first — dropping unreachable blocks and merging
//!    single-predecessor chains gives the block-local passes bigger
//!    windows.
//! 2. `clean` (fold → CSE → DCE to a fixpoint) — folding uses the
//!    reference interpreter's own arithmetic helpers, so folded
//!    constants are bit-exact; integer-only algebraic identities
//!    (`x+0`, `x*1`, `x*0`, …) strength-reduce the generator's affine
//!    address expressions. Floats are never reassociated or folded
//!    against identities (`x+0.0` would flip `-0.0`).
//! 3. `unroll` — fully unrolls loops whose trip count folds to a
//!    constant (the generator's `pwi` work-item loops). Runs after
//!    `clean` so loop bounds are materialised constants. Each unrolled
//!    loop is followed by its own `simplify`+`clean`, which merges the
//!    unrolled chain into straight-line code and CSEs cross-iteration
//!    redundancy, so the pipeline needs no second pair after `unroll`.
//!
//! Every pass preserves block [`Cost`]s: ops move or disappear, the
//! frozen per-execution stats charge does not. Unrolling *copies*
//! costs (header cost × T+1, body cost × T), which is exactly what
//! the reference interpreter would have charged.
//!
//! Unrolled kernels are long straight-line blocks with long use
//! chains, so every pass is kept near-linear in the ops it sees:
//! `simplify` merges all `Br` chains in one sweep; DCE marks liveness
//! with a worklist over def sites (each value is expanded once, however
//! long the chain); CSE keys ops on a hashable structural key, with
//! constants compared as bit patterns, hashed with the shim's
//! fixed-state multiply hasher; and `fold`, `cse` and `simplify`
//! keep their substitutions in dense per-value `Alias` tables.

use super::{Block, CompileStats, Edge, Func, Op, OpKind, Term, Val};
use crate::ast::{Base, BinOp};
use crate::lower::{RegClass, WiFunc};
use crate::vm::{self, Value};
use clgemm_shim::hash::FixedState;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

// ---- shared helpers -------------------------------------------------------

/// A dense value-substitution table, one slot per value.
struct Alias {
    to: Vec<Val>,
    any: bool,
}

impl Alias {
    const NONE: Val = Val::MAX;

    fn new(f: &Func) -> Alias {
        Alias {
            to: vec![Alias::NONE; f.n_vals()],
            any: false,
        }
    }

    fn set(&mut self, v: Val, to: Val) {
        self.to[v as usize] = to;
        self.any = true;
    }

    fn resolve(&self, mut v: Val) -> Val {
        loop {
            match self.to[v as usize] {
                Alias::NONE => return v,
                n => v = n,
            }
        }
    }

    /// Rewrite every operand, condition and edge argument of `f`.
    fn apply(&self, f: &mut Func) {
        if !self.any {
            return;
        }
        for b in &mut f.blocks {
            for op in &mut b.ops {
                op.kind.map_operands(&mut |v| self.resolve(v));
            }
            if let Term::CondBr { cond, .. } = &mut b.term {
                *cond = self.resolve(*cond);
            }
            for e in b.term.edges_mut() {
                for a in &mut e.args {
                    *a = self.resolve(*a);
                }
            }
        }
    }
}

/// Constant value of each val whose defining op is `Const`.
fn konst_map(f: &Func) -> Vec<Option<Value>> {
    let mut k = vec![None; f.n_vals()];
    for b in &f.blocks {
        for op in &b.ops {
            if let (Some(d), OpKind::Const(v)) = (op.dst, &op.kind) {
                k[d as usize] = Some(*v);
            }
        }
    }
    k
}

fn as_b(v: Value) -> Option<bool> {
    match v {
        Value::B(b) => Some(b),
        Value::I(x) => Some(x != 0),
        _ => None,
    }
}

/// Evaluate a pure op over constant operands with the reference
/// interpreter's own arithmetic. `None` when not evaluable (unknown
/// operand, memory op, or a would-be runtime error, which must stay
/// in the code and trap at the same point).
fn eval_kind(kind: &OpKind, get: &dyn Fn(Val) -> Option<Value>) -> Option<Value> {
    match kind {
        OpKind::Const(v) => Some(*v),
        OpKind::Bin(op, a, b) => vm::bin_op(*op, get(*a)?, get(*b)?).ok(),
        OpKind::Un(op, a) => vm::un_op(*op, get(*a)?).ok(),
        OpKind::Convert(a, base) => vm::convert(get(*a)?, *base).ok(),
        OpKind::Broadcast(a, w) => vm::broadcast(get(*a)?, *w).ok(),
        OpKind::Extract(a, lane) => vm::extract(get(*a)?, *lane).ok(),
        OpKind::Insert(a, s, lane) => vm::insert_lane(get(*a)?, get(*s)?, *lane).ok(),
        OpKind::Mad(a, b, c) => vm::mad(get(*a)?, get(*b)?, get(*c)?).ok(),
        // Created by `fuse`, which runs after all folding passes.
        OpKind::MadLane(..) => None,
        OpKind::Math(mf, args, n) => {
            let a = get(args[0])?;
            let b = if *n >= 2 { get(args[1])? } else { a };
            let c = if *n >= 3 { get(args[2])? } else { a };
            vm::math(*mf, a, b, c, *n).ok()
        }
        OpKind::BuildVec(base, parts) => {
            let vals: Option<Vec<Value>> = parts.iter().map(|&p| get(p)).collect();
            let vals = vals?;
            match base {
                Base::Float => {
                    let xs: Option<Vec<f32>> = vals
                        .iter()
                        .map(|v| match v {
                            Value::F32(x) => Some(*x),
                            _ => None,
                        })
                        .collect();
                    Some(Value::v32(&xs?))
                }
                Base::Double => {
                    let xs: Option<Vec<f64>> = vals
                        .iter()
                        .map(|v| match v {
                            Value::F64(x) => Some(*x),
                            _ => None,
                        })
                        .collect();
                    Some(Value::v64(&xs?))
                }
                _ => None,
            }
        }
        OpKind::Select(c, a, b) => {
            if as_b(get(*c)?)? {
                get(*a)
            } else {
                get(*b)
            }
        }
        // Geometry-dependent except the always-clamped dimension 2.
        OpKind::Wi(wf, dim) => match get(*dim)? {
            Value::I(2) => Some(match wf {
                WiFunc::GlobalSize | WiFunc::LocalSize | WiFunc::NumGroups => Value::I(1),
                _ => Value::I(0),
            }),
            _ => None,
        },
        OpKind::LoadGlobal { .. }
        | OpKind::StoreGlobal { .. }
        | OpKind::LoadLocal { .. }
        | OpKind::StoreLocal { .. } => None,
    }
}

// ---- simplify: CFG cleanup ------------------------------------------------

/// Remove unreachable blocks and merge single-predecessor `Br` chains,
/// all in one sweep: each block absorbs its `Br` successor for as long
/// as that successor has no other predecessor, and the absorbed block's
/// parameters become aliases of the edge's arguments.
pub fn simplify(f: &mut Func, st: &mut CompileStats) {
    compact(f);
    let mut preds = f.preds();
    let mut alias = Alias::new(f);
    for b in 0..f.blocks.len() {
        while let Term::Br(e) = &f.blocks[b].term {
            let c = e.to;
            if c == 0 || c == b || preds[c] != [b] {
                break;
            }
            let cblk = std::mem::replace(
                &mut f.blocks[c],
                Block {
                    params: vec![],
                    ops: vec![],
                    term: Term::Ret,
                    cost: super::Cost::default(),
                },
            );
            let Term::Br(e) = std::mem::replace(&mut f.blocks[b].term, cblk.term) else {
                unreachable!("matched above");
            };
            for (p, a) in cblk.params.iter().zip(&e.args) {
                alias.set(*p, alias.resolve(*a));
            }
            for s in f.blocks[b].term.edges() {
                for x in &mut preds[s.to] {
                    if *x == c {
                        *x = b;
                    }
                }
            }
            f.blocks[b].ops.extend(cblk.ops);
            f.blocks[b].cost.add(&cblk.cost);
            st.blocks_merged += 1;
        }
    }
    alias.apply(f);
    compact(f);
}

/// Drop unreachable blocks and renumber the rest (entry stays 0).
fn compact(f: &mut Func) {
    let n = f.blocks.len();
    let mut seen = vec![false; n];
    let mut stack = vec![0usize];
    while let Some(b) = stack.pop() {
        if std::mem::replace(&mut seen[b], true) {
            continue;
        }
        for e in f.blocks[b].term.edges() {
            stack.push(e.to);
        }
    }
    if seen.iter().all(|&s| s) {
        return;
    }
    let mut remap = vec![usize::MAX; n];
    let mut next = 0usize;
    for (i, &s) in seen.iter().enumerate() {
        if s {
            remap[i] = next;
            next += 1;
        }
    }
    let old = std::mem::take(&mut f.blocks);
    for (i, b) in old.into_iter().enumerate() {
        if seen[i] {
            f.blocks.push(b);
        }
    }
    for b in &mut f.blocks {
        for e in b.term.edges_mut() {
            e.to = remap[e.to];
        }
    }
}

// ---- clean: fold + CSE + DCE to a fixpoint --------------------------------

pub fn clean(f: &mut Func, st: &mut CompileStats) {
    loop {
        let mut changed = false;
        changed |= fold(f, st);
        changed |= cse(f, st);
        changed |= dce(f, st);
        if !changed {
            break;
        }
    }
}

/// Constant folding, identity-conversion removal, and integer
/// algebraic identities.
fn fold(f: &mut Func, st: &mut CompileStats) -> bool {
    let mut changed = false;
    let mut konst = konst_map(f);
    let mut alias = Alias::new(f);
    for bi in 0..f.blocks.len() {
        let mut ops = std::mem::take(&mut f.blocks[bi].ops);
        ops.retain_mut(|op| {
            op.kind.map_operands(&mut |v| alias.resolve(v));
            let Some(d) = op.dst else { return true };
            if matches!(op.kind, OpKind::Const(_)) {
                return true;
            }
            // Identity conversions and Select with a constant
            // condition become pure aliases.
            if let Some(src) = alias_of(&op.kind, &f.classes, &konst) {
                alias.set(d, alias.resolve(src));
                st.folded += 1;
                changed = true;
                return false;
            }
            let get = |v: Val| konst[v as usize];
            if let Some(v) = eval_kind(&op.kind, &get) {
                op.kind = OpKind::Const(v);
                konst[d as usize] = Some(v);
                st.folded += 1;
                changed = true;
            }
            true
        });
        f.blocks[bi].ops = ops;
    }
    alias.apply(f);
    changed
}

/// `Some(source)` when the op is value-identical to one of its
/// operands (or a constant-condition Select), under the compiled
/// engine's bool-as-int encoding.
fn alias_of(kind: &OpKind, classes: &[RegClass], konst: &[Option<Value>]) -> Option<Val> {
    let kv = |v: Val| konst[v as usize];
    match kind {
        // Identity conversions: same storage class, same base.
        OpKind::Convert(a, base) => match (classes[*a as usize], base) {
            (RegClass::F32, Base::Float)
            | (RegClass::F64, Base::Double)
            | (RegClass::V32(_), Base::Float)
            | (RegClass::V64(_), Base::Double)
            | (RegClass::Int, Base::Int | Base::Uint) => Some(*a),
            _ => None,
        },
        OpKind::Select(c, a, b) => as_b(kv(*c)?).map(|t| if t { *a } else { *b }),
        // Integer-only algebraic identities; wrapping arithmetic makes
        // these exact. Floats are deliberately excluded.
        OpKind::Bin(op, a, b) if classes[*a as usize] == RegClass::Int => {
            let ci = |v: Val| match kv(v) {
                Some(Value::I(x)) => Some(x),
                _ => None,
            };
            match op {
                BinOp::Add => match (ci(*a), ci(*b)) {
                    (Some(0), _) => Some(*b),
                    (_, Some(0)) => Some(*a),
                    _ => None,
                },
                BinOp::Sub | BinOp::Shl | BinOp::Shr if ci(*b) == Some(0) => Some(*a),
                BinOp::Mul => match (ci(*a), ci(*b)) {
                    (Some(1), _) => Some(*b),
                    (_, Some(1)) => Some(*a),
                    _ => None,
                },
                BinOp::Div if ci(*b) == Some(1) => Some(*a),
                _ => None,
            }
        }
        _ => None,
    }
}

/// Bit pattern of a constant over its live lanes, tagged by kind.
#[derive(PartialEq, Eq, Hash)]
enum ConstBits {
    I(i64),
    B(bool),
    F32(u32),
    F64(u64),
    V32([u32; 16], u8),
    V64([u64; 16], u8),
}

impl ConstBits {
    fn of(v: &Value) -> ConstBits {
        match *v {
            Value::I(x) => ConstBits::I(x),
            Value::B(x) => ConstBits::B(x),
            Value::F32(x) => ConstBits::F32(x.to_bits()),
            Value::F64(x) => ConstBits::F64(x.to_bits()),
            Value::V32(xs, w) => {
                let mut bits = [0; 16];
                for (b, x) in bits.iter_mut().zip(&xs[..w as usize]) {
                    *b = x.to_bits();
                }
                ConstBits::V32(bits, w)
            }
            Value::V64(xs, w) => {
                let mut bits = [0; 16];
                for (b, x) in bits.iter_mut().zip(&xs[..w as usize]) {
                    *b = x.to_bits();
                }
                ConstBits::V64(bits, w)
            }
        }
    }
}

/// A pure op as a CSE key. Constants compare by kind and bit pattern
/// over their live lanes, so NaN payloads, ±0.0, `I(1)`/`B(true)` and
/// vectors of different widths stay apart; every other op compares by
/// its derived equality (operator, operands and immediates), which
/// holds no floats.
struct CseKey(OpKind);

impl PartialEq for CseKey {
    fn eq(&self, other: &CseKey) -> bool {
        match (&self.0, &other.0) {
            (OpKind::Const(a), OpKind::Const(b)) => ConstBits::of(a) == ConstBits::of(b),
            (a, b) => a == b,
        }
    }
}

impl Eq for CseKey {}

impl Hash for CseKey {
    fn hash<H: Hasher>(&self, h: &mut H) {
        std::mem::discriminant(&self.0).hash(h);
        match &self.0 {
            OpKind::Const(v) => ConstBits::of(v).hash(h),
            kind => kind.for_each_operand(|v| v.hash(h)),
        }
    }
}

/// Block-local common-subexpression elimination. Memory ops are never
/// merged (their bounds/race effects must fire per access); everything
/// else is deterministic per (group, work-item), so merging a repeat
/// with its first occurrence is bit-exact — including trapping ops,
/// which would have trapped at the first occurrence already.
fn cse(f: &mut Func, st: &mut CompileStats) -> bool {
    let mut changed = false;
    let mut alias = Alias::new(f);
    // Probed only through `entry`, never iterated, so the hasher cannot
    // move a plan.
    let mut seen: HashMap<CseKey, Val, FixedState> = HashMap::with_hasher(FixedState);
    for b in &mut f.blocks {
        seen.clear();
        seen.reserve(b.ops.len());
        b.ops.retain_mut(|op| {
            op.kind.map_operands(&mut |v| alias.resolve(v));
            let Some(d) = op.dst else { return true };
            if op.kind.is_mem() {
                return true;
            }
            match seen.entry(CseKey(op.kind.clone())) {
                Entry::Occupied(prev) => {
                    alias.set(d, *prev.get());
                    st.cse += 1;
                    changed = true;
                    false
                }
                Entry::Vacant(slot) => {
                    slot.insert(d);
                    true
                }
            }
        });
    }
    alias.apply(f);
    changed
}

/// Dead-code elimination over ops and block parameters. Memory ops and
/// possibly-trapping ops are roots (removing them would remove a
/// bounds/race/arithmetic error the reference interpreter raises).
///
/// Liveness is the least fixpoint of "a terminator reads it, or a live
/// op takes it as an operand", found by a worklist over def sites:
/// every value is marked and expanded once, so the cost is linear in
/// the function however long its use chains.
fn dce(f: &mut Func, st: &mut CompileStats) -> bool {
    let konst = konst_map(f);
    let n = f.n_vals();
    let is_root = |kind: &OpKind| -> bool {
        if kind.is_mem() {
            return true;
        }
        match kind {
            OpKind::Bin(BinOp::Div | BinOp::Rem, _, b) => {
                !matches!(konst[*b as usize], Some(Value::I(x)) if x != 0)
            }
            // A non-constant or out-of-range dimension traps.
            OpKind::Wi(_, dim) => {
                !matches!(konst[*dim as usize], Some(Value::I(d)) if (0..=2).contains(&d))
            }
            _ => false,
        }
    };
    let mut used = vec![false; n];
    let mut work: Vec<Val> = Vec::new();
    let mark = |used: &mut [bool], work: &mut Vec<Val>, v: Val| {
        if !std::mem::replace(&mut used[v as usize], true) {
            work.push(v);
        }
    };
    let mut def: Vec<Option<&OpKind>> = vec![None; n];
    for b in &f.blocks {
        if let Term::CondBr { cond, .. } = &b.term {
            mark(&mut used, &mut work, *cond);
        }
        for e in b.term.edges() {
            for &a in &e.args {
                mark(&mut used, &mut work, a);
            }
        }
        for op in &b.ops {
            if let Some(d) = op.dst {
                def[d as usize] = Some(&op.kind);
            }
            if is_root(&op.kind) {
                op.kind.for_each_operand(|v| mark(&mut used, &mut work, v));
            }
        }
    }
    while let Some(v) = work.pop() {
        if let Some(kind) = def[v as usize] {
            kind.for_each_operand(|u| mark(&mut used, &mut work, u));
        }
    }
    let mut changed = false;
    for b in &mut f.blocks {
        let before = b.ops.len();
        b.ops
            .retain(|op| is_root(&op.kind) || op.dst.is_none_or(|d| used[d as usize]));
        let removed = before - b.ops.len();
        st.dce += removed as u64;
        changed |= removed > 0;
    }
    // Prune dead block parameters and the matching edge arguments.
    for bi in 0..f.blocks.len() {
        let mut term = std::mem::replace(&mut f.blocks[bi].term, Term::Ret);
        for e in term.edges_mut() {
            let mut params = f.blocks[e.to].params.iter();
            e.args
                .retain(|_| used[*params.next().expect("one argument per parameter") as usize]);
        }
        f.blocks[bi].term = term;
    }
    let mut entry = f.blocks[0].params.iter();
    f.entry_regs
        .retain(|_| used[*entry.next().expect("one register per entry parameter") as usize]);
    for b in &mut f.blocks {
        let before = b.params.len();
        b.params.retain(|&p| used[p as usize]);
        changed |= b.params.len() != before;
    }
    changed
}

// ---- unroll ---------------------------------------------------------------

/// Budget caps: give up past this many iterations or resulting ops.
const MAX_TRIPS: usize = 256;
const MAX_UNROLL_OPS: usize = 50_000;

/// Fully unroll two-block loops (`header ⇄ body`) whose trip count
/// folds to a constant: the shape the generator's `pwi` work-item
/// loops take after `simplify`. The header's condition chain is
/// re-evaluated symbolically each iteration with reference arithmetic;
/// anything non-constant (e.g. a `K`-bounded outer loop) bails out.
pub fn unroll(f: &mut Func, st: &mut CompileStats) {
    while unroll_one(f, st) == Some(true) {
        simplify(f, st);
        let mut ignore = CompileStats::default();
        clean(f, &mut ignore);
        st.folded += ignore.folded;
        st.cse += ignore.cse;
        st.dce += ignore.dce;
    }
}

/// Try to unroll one loop. `Some(true)` when a loop was unrolled,
/// `Some(false)` when none qualified.
#[allow(clippy::too_many_lines)]
fn unroll_one(f: &mut Func, st: &mut CompileStats) -> Option<bool> {
    let preds = f.preds();
    let konst = konst_map(f);
    for h in 1..f.blocks.len() {
        let Term::CondBr { cond, t, f: fe } = f.blocks[h].term.clone() else {
            continue;
        };
        if preds[h].len() != 2 {
            continue;
        }
        let is_latch = |x: usize| -> bool {
            x != 0
                && x != h
                && preds[x] == [h]
                && matches!(&f.blocks[x].term, Term::Br(e) if e.to == h)
        };
        let (body_e, exit_e, body_on_true) = if is_latch(t.to) {
            (t.clone(), fe.clone(), true)
        } else if is_latch(fe.to) {
            (fe.clone(), t.clone(), false)
        } else {
            continue;
        };
        let b = body_e.to;
        if exit_e.to == h || exit_e.to == b {
            continue;
        }
        let &p = preds[h].iter().find(|&&x| x != b)?;
        if p == h {
            continue;
        }
        let p_edges_to_h = f.blocks[p]
            .term
            .edges()
            .iter()
            .filter(|e| e.to == h)
            .count();
        if p_edges_to_h != 1 {
            continue;
        }
        let init_args = f.blocks[p]
            .term
            .edges()
            .into_iter()
            .find(|e| e.to == h)
            .expect("checked")
            .args
            .clone();
        let latch_args = match &f.blocks[b].term {
            Term::Br(e) => e.args.clone(),
            _ => continue,
        };

        // Symbolic trip count.
        let mut param_vals: HashMap<Val, Value> = HashMap::new();
        for (param, arg) in f.blocks[h].params.iter().zip(&init_args) {
            if let Some(v) = konst[*arg as usize] {
                param_vals.insert(*param, v);
            }
        }
        let mut trips = 0usize;
        let trips = loop {
            let mut cur = param_vals.clone();
            let get_in =
                |cur: &HashMap<Val, Value>, v: Val| cur.get(&v).copied().or(konst[v as usize]);
            for op in &f.blocks[h].ops {
                if let Some(d) = op.dst {
                    let get = |v: Val| get_in(&cur, v);
                    if let Some(val) = eval_kind(&op.kind, &get) {
                        cur.insert(d, val);
                    }
                }
            }
            let Some(cv) = get_in(&cur, cond).and_then(as_b) else {
                break None;
            };
            if cv != body_on_true {
                break Some(trips);
            }
            // Evaluate the body far enough to compute the next params.
            for (param, arg) in f.blocks[b].params.iter().zip(&body_e.args) {
                match get_in(&cur, *arg) {
                    Some(v) => {
                        cur.insert(*param, v);
                    }
                    None => {
                        cur.remove(param);
                    }
                }
            }
            for op in &f.blocks[b].ops {
                if let Some(d) = op.dst {
                    let get = |v: Val| get_in(&cur, v);
                    if let Some(val) = eval_kind(&op.kind, &get) {
                        cur.insert(d, val);
                    }
                }
            }
            param_vals.clear();
            for (param, arg) in f.blocks[h].params.iter().zip(&latch_args) {
                if let Some(v) = get_in(&cur, *arg) {
                    param_vals.insert(*param, v);
                }
            }
            trips += 1;
            if trips > MAX_TRIPS {
                break None;
            }
        };
        let Some(trips) = trips else { continue };
        let body_cost = trips * (f.blocks[h].ops.len() + f.blocks[b].ops.len());
        if body_cost > MAX_UNROLL_OPS {
            continue;
        }

        // Materialise: header copy → body copy → … → final header copy
        // branching to the exit. Each copy substitutes the incoming
        // block arguments directly, so copies carry no parameters.
        let mut cur_args = init_args;
        let mut first_copy = None;
        let mut prev: Option<usize> = None;
        for _ in 0..trips {
            let (hc, mh) = clone_block(f, h, &cur_args);
            if first_copy.is_none() {
                first_copy = Some(hc);
            }
            if let Some(pb) = prev {
                f.blocks[pb].term = Term::Br(Edge {
                    to: hc,
                    args: vec![],
                });
            }
            let bargs: Vec<Val> = body_e
                .args
                .iter()
                .map(|v| *mh.get(v).unwrap_or(v))
                .collect();
            let (bc, mb) = clone_block(f, b, &bargs);
            f.blocks[hc].term = Term::Br(Edge {
                to: bc,
                args: vec![],
            });
            cur_args = latch_args.iter().map(|v| *mb.get(v).unwrap_or(v)).collect();
            prev = Some(bc);
        }
        let (hf, mhf) = clone_block(f, h, &cur_args);
        if let Some(pb) = prev {
            f.blocks[pb].term = Term::Br(Edge {
                to: hf,
                args: vec![],
            });
        }
        f.blocks[hf].term = Term::Br(Edge {
            to: exit_e.to,
            args: exit_e
                .args
                .iter()
                .map(|v| *mhf.get(v).unwrap_or(v))
                .collect(),
        });
        let entry = first_copy.unwrap_or(hf);
        for e in f.blocks[p].term.edges_mut() {
            if e.to == h {
                e.to = entry;
                e.args.clear();
            }
        }
        st.unrolled_loops += 1;
        st.unrolled_iters += trips as u64;
        return Some(true);
    }
    Some(false)
}

/// Clone a block with its parameters substituted by `incoming` and all
/// op destinations renamed fresh. Returns the new block index and the
/// old→new value map (params map to the incoming args).
fn clone_block(f: &mut Func, src: usize, incoming: &[Val]) -> (usize, HashMap<Val, Val>) {
    let mut m: HashMap<Val, Val> = HashMap::new();
    let params = f.blocks[src].params.clone();
    for (param, &arg) in params.iter().zip(incoming) {
        m.insert(*param, arg);
    }
    let src_ops = f.blocks[src].ops.clone();
    let mut ops = Vec::with_capacity(src_ops.len());
    for op in src_ops {
        let mut kind = op.kind;
        kind.map_operands(&mut |v| *m.get(&v).unwrap_or(&v));
        let dst = op.dst.map(|d| {
            let nd = f.new_val(f.classes[d as usize]);
            m.insert(d, nd);
            nd
        });
        ops.push(Op { dst, kind });
    }
    let cost = f.blocks[src].cost;
    f.blocks.push(Block {
        params: vec![],
        ops,
        term: Term::Ret,
        cost,
    });
    (f.blocks.len() - 1, m)
}

// ---- licm -----------------------------------------------------------------

/// Loop-invariant code motion. Runs after `unroll`, so the only loops
/// left are runtime-bounded (the generator's `K` tile loop); their
/// bodies recompute work-item addressing chains that depend only on
/// ids and compile-time tile shapes. Pure, non-trapping invariant ops
/// move to the loop's unique preheader. Possibly-trapping ops
/// (`Div`/`Rem` without a known non-zero divisor, `Wi` with a
/// non-constant dimension) stay put: hoisting one would raise an error
/// the reference interpreter only raises if the loop actually runs.
/// Costs are frozen per block, so moving ops changes neither stats nor
/// step-limit outcomes.
pub fn licm(f: &mut Func, st: &mut CompileStats) {
    let konst = konst_map(f);
    let nb = f.blocks.len();
    let preds = f.preds();
    // Iterative dominator sets over the (small) CFG.
    let mut dom = vec![vec![true; nb]; nb];
    dom[0] = vec![false; nb];
    dom[0][0] = true;
    let mut grew = true;
    while grew {
        grew = false;
        for b in 1..nb {
            let mut nd = vec![true; nb];
            for &p in &preds[b] {
                for (x, y) in nd.iter_mut().zip(&dom[p]) {
                    *x = *x && *y;
                }
            }
            nd[b] = true;
            if nd != dom[b] {
                dom[b] = nd;
                grew = true;
            }
        }
    }
    // Natural loops, merged per header: every back edge `b → h` with
    // `h` dominating `b` contributes `{h} ∪ reverse-reachable(b)`.
    let mut loops: HashMap<usize, Vec<bool>> = HashMap::new();
    for (b, blk) in f.blocks.iter().enumerate() {
        for e in blk.term.edges() {
            let h = e.to;
            if !dom[b][h] {
                continue;
            }
            let in_loop = loops.entry(h).or_insert_with(|| {
                let mut v = vec![false; nb];
                v[h] = true;
                v
            });
            let mut stack = vec![b];
            while let Some(x) = stack.pop() {
                if !in_loop[x] {
                    in_loop[x] = true;
                    stack.extend(preds[x].iter().copied());
                }
            }
        }
    }
    if loops.is_empty() {
        return;
    }
    // val → defining block (params and op dsts).
    let mut def = vec![usize::MAX; f.n_vals()];
    for (bi, b) in f.blocks.iter().enumerate() {
        for &p in &b.params {
            def[p as usize] = bi;
        }
        for op in &b.ops {
            if let Some(d) = op.dst {
                def[d as usize] = bi;
            }
        }
    }
    let hoistable = |kind: &OpKind| -> bool {
        if kind.is_mem() {
            return false;
        }
        match kind {
            OpKind::Bin(BinOp::Div | BinOp::Rem, _, b) => {
                matches!(konst[*b as usize], Some(Value::I(x)) if x != 0)
            }
            OpKind::Wi(_, dim) => {
                matches!(konst[*dim as usize], Some(Value::I(d)) if (0..=2).contains(&d))
            }
            _ => true,
        }
    };
    let mut headers: Vec<usize> = loops.keys().copied().collect();
    headers.sort_unstable();
    // Fixpoint: an op hoisted into an inner preheader (itself inside an
    // outer loop) is re-examined by the outer loop's next round, and a
    // hoisted def unlocks its users across blocks.
    let mut moved = true;
    while moved {
        moved = false;
        for &h in &headers {
            let in_loop = &loops[&h];
            // The preheader: the unique predecessor outside the loop,
            // itself dominating the header, so a def placed there
            // dominates every use inside the loop.
            let outside: Vec<usize> = preds[h].iter().copied().filter(|&p| !in_loop[p]).collect();
            let [pre] = outside[..] else { continue };
            if !dom[h][pre] {
                continue;
            }
            let mut lifted: Vec<Op> = Vec::new();
            for bi in 0..nb {
                if !in_loop[bi] {
                    continue;
                }
                let ops = std::mem::take(&mut f.blocks[bi].ops);
                let mut kept = Vec::with_capacity(ops.len());
                for op in ops {
                    let mut invariant = hoistable(&op.kind);
                    op.kind.for_each_operand(|v| {
                        let dv = def[v as usize];
                        invariant &= dv >= nb || !in_loop[dv];
                    });
                    if invariant {
                        if let Some(d) = op.dst {
                            def[d as usize] = pre;
                        }
                        lifted.push(op);
                        moved = true;
                    } else {
                        kept.push(op);
                    }
                }
                f.blocks[bi].ops = kept;
            }
            st.hoisted += lifted.len() as u64;
            f.blocks[pre].ops.extend(lifted);
        }
    }
}

// ---- fuse -----------------------------------------------------------------

/// Fuse `mad(broadcast(extract(v, lane)), b, c)` — either multiplicand,
/// since fma's multiplication commutes — into [`OpKind::MadLane`],
/// which the trace executes as one op reading the lane in place. The
/// generator's inner product is `MWI × NWI` such triples per unrolled
/// iteration; fusing removes the scalar and the broadcast vector
/// temporary per mad. The leftover `Extract`/`Broadcast` ops die in
/// the following `clean` unless otherwise used.
pub fn fuse(f: &mut Func, st: &mut CompileStats) {
    let mut def: HashMap<Val, OpKind> = HashMap::new();
    for b in &f.blocks {
        for op in &b.ops {
            if let (Some(d), OpKind::Broadcast(..) | OpKind::Extract(..)) = (op.dst, &op.kind) {
                def.insert(d, op.kind.clone());
            }
        }
    }
    let lane_of = |v: Val| -> Option<(Val, u8)> {
        if let Some(OpKind::Broadcast(s, _)) = def.get(&v) {
            if let Some(OpKind::Extract(vec, lane)) = def.get(s) {
                return Some((*vec, *lane));
            }
        }
        None
    };
    for b in &mut f.blocks {
        for op in &mut b.ops {
            let (a0, b0, c0, d) = match (&op.kind, op.dst) {
                (&OpKind::Mad(a0, b0, c0), Some(d)) => (a0, b0, c0, d),
                _ => continue,
            };
            let Some(((vec, lane), mul)) = lane_of(a0)
                .map(|x| (x, b0))
                .or_else(|| lane_of(b0).map(|x| (x, a0)))
            else {
                continue;
            };
            // Same float family only — the trace reads the lane
            // straight out of the source vector's slot.
            let ok = matches!(
                (f.classes[d as usize], f.classes[vec as usize]),
                (RegClass::V32(_), RegClass::V32(ws)) | (RegClass::V64(_), RegClass::V64(ws))
                    if lane < ws
            );
            if !ok {
                continue;
            }
            op.kind = OpKind::MadLane(vec, lane, mul, c0);
            st.fused += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Cost;

    /// Builds a function whose entry block is block 0.
    struct Fb(Func);

    impl Fb {
        fn new(n_blocks: usize) -> Fb {
            let block = Block {
                params: vec![],
                ops: vec![],
                term: Term::Ret,
                cost: Cost::default(),
            };
            Fb(Func {
                blocks: vec![block; n_blocks],
                classes: vec![],
                entry_regs: vec![],
            })
        }

        fn param(&mut self, b: usize, class: RegClass) -> Val {
            let v = self.0.new_val(class);
            self.0.blocks[b].params.push(v);
            if b == 0 {
                self.0.entry_regs.push(v as usize);
            }
            v
        }

        fn op(&mut self, b: usize, class: RegClass, kind: OpKind) -> Val {
            let v = self.0.new_val(class);
            self.0.blocks[b].ops.push(Op { dst: Some(v), kind });
            v
        }

        fn store(&mut self, b: usize, idx: Val, src: Val) {
            self.0.blocks[b].ops.push(Op {
                dst: None,
                kind: OpKind::StoreGlobal {
                    buf: 0,
                    idx,
                    src,
                    width: 1,
                },
            });
        }

        /// A chain `v = v + 1`, `n` ops long, starting from `x`.
        fn chain(&mut self, x: Val, n: usize) -> Val {
            let one = self.op(0, RegClass::Int, OpKind::Const(Value::I(1)));
            (0..n).fold(x, |v, _| {
                self.op(0, RegClass::Int, OpKind::Bin(BinOp::Add, v, one))
            })
        }
    }

    fn kinds(f: &Func, b: usize) -> Vec<OpKind> {
        f.blocks[b].ops.iter().map(|op| op.kind.clone()).collect()
    }

    #[test]
    fn cse_merges_equal_pure_ops_and_constants() {
        let mut fb = Fb::new(1);
        let x = fb.param(0, RegClass::Int);
        let c1 = fb.op(0, RegClass::Int, OpKind::Const(Value::I(7)));
        let c2 = fb.op(0, RegClass::Int, OpKind::Const(Value::I(7)));
        let a1 = fb.op(0, RegClass::Int, OpKind::Bin(BinOp::Add, x, c1));
        let a2 = fb.op(0, RegClass::Int, OpKind::Bin(BinOp::Add, x, c2));
        fb.store(0, a1, a2);
        let mut st = CompileStats::default();
        assert!(cse(&mut fb.0, &mut st));
        assert_eq!(st.cse, 2);
        assert_eq!(
            kinds(&fb.0, 0),
            [
                OpKind::Const(Value::I(7)),
                OpKind::Bin(BinOp::Add, x, c1),
                OpKind::StoreGlobal {
                    buf: 0,
                    idx: a1,
                    src: a1,
                    width: 1
                },
            ]
        );
        assert!(!cse(&mut fb.0, &mut st), "a second run finds nothing");
    }

    #[test]
    fn cse_keeps_distinct_bit_patterns_apart() {
        let v32 = |xs: &[f32]| Value::v32(xs);
        let pairs = [
            (
                Value::F32(f32::from_bits(0x7fc0_0001)),
                Value::F32(f32::from_bits(0x7fc0_0002)),
            ),
            (Value::F32(0.0), Value::F32(-0.0)),
            (Value::F64(0.0), Value::F64(-0.0)),
            (Value::I(1), Value::B(true)),
            (v32(&[1.0, 2.0]), v32(&[1.0, 3.0])),
            (v32(&[1.0, 2.0]), v32(&[1.0, 2.0, 0.0])),
        ];
        for (a, b) in pairs {
            let mut fb = Fb::new(1);
            fb.op(0, RegClass::Int, OpKind::Const(a));
            fb.op(0, RegClass::Int, OpKind::Const(b));
            let mut st = CompileStats::default();
            assert!(!cse(&mut fb.0, &mut st), "{a:?} merged with {b:?}");
            assert_eq!(fb.0.blocks[0].ops.len(), 2);
        }
        // The same NaN payload twice is one constant.
        let mut fb = Fb::new(1);
        let nan = Value::F32(f32::from_bits(0x7fc0_0001));
        fb.op(0, RegClass::F32, OpKind::Const(nan));
        fb.op(0, RegClass::F32, OpKind::Const(nan));
        let mut st = CompileStats::default();
        assert!(cse(&mut fb.0, &mut st));
        assert_eq!(st.cse, 1);
    }

    #[test]
    fn cse_never_merges_loads_or_stores() {
        let mut fb = Fb::new(1);
        let x = fb.param(0, RegClass::Int);
        let load = OpKind::LoadGlobal {
            buf: 0,
            idx: x,
            width: 1,
        };
        let l1 = fb.op(0, RegClass::F32, load.clone());
        let l2 = fb.op(0, RegClass::F32, load);
        fb.store(0, x, l1);
        fb.store(0, x, l1);
        let mut st = CompileStats::default();
        assert!(!cse(&mut fb.0, &mut st));
        assert_eq!(fb.0.blocks[0].ops.len(), 4);
        assert_eq!(fb.0.blocks[0].ops[1].dst, Some(l2));
    }

    #[test]
    fn dce_removes_a_long_dead_chain() {
        let mut fb = Fb::new(1);
        let x = fb.param(0, RegClass::Int);
        fb.chain(x, 10_000);
        fb.store(0, x, x);
        let mut st = CompileStats::default();
        assert!(dce(&mut fb.0, &mut st));
        assert_eq!(st.dce, 10_001, "the chain and its constant");
        assert_eq!(fb.0.blocks[0].ops.len(), 1);
    }

    #[test]
    fn dce_keeps_a_long_chain_that_feeds_a_store() {
        let mut fb = Fb::new(1);
        let x = fb.param(0, RegClass::Int);
        let last = fb.chain(x, 10_000);
        fb.store(0, x, last);
        let before = fb.0.clone();
        let mut st = CompileStats::default();
        assert!(!dce(&mut fb.0, &mut st));
        assert_eq!(st.dce, 0);
        assert_eq!(fb.0, before);
    }

    #[test]
    fn dce_keeps_possibly_trapping_ops() {
        let mut fb = Fb::new(1);
        let x = fb.param(0, RegClass::Int);
        let int = |fb: &mut Fb, k| fb.op(0, RegClass::Int, OpKind::Const(Value::I(k)));
        let (zero, three, five) = (int(&mut fb, 0), int(&mut fb, 3), int(&mut fb, 5));
        let trapping = [
            OpKind::Bin(BinOp::Div, x, x),
            OpKind::Bin(BinOp::Rem, x, zero),
            OpKind::Wi(WiFunc::GlobalId, x),
            OpKind::Wi(WiFunc::GlobalId, five),
        ];
        let safe = [
            OpKind::Bin(BinOp::Div, x, three),
            OpKind::Bin(BinOp::Rem, x, three),
            OpKind::Wi(WiFunc::GlobalId, zero),
        ];
        for kind in trapping.iter().chain(&safe) {
            fb.op(0, RegClass::Int, kind.clone());
        }
        let mut st = CompileStats::default();
        dce(&mut fb.0, &mut st);
        let mut want = vec![OpKind::Const(Value::I(0)), OpKind::Const(Value::I(5))];
        want.extend(trapping);
        assert_eq!(kinds(&fb.0, 0), want);
    }

    #[test]
    fn dce_prunes_a_dead_block_parameter_with_its_edge_arguments() {
        let mut fb = Fb::new(2);
        let a = fb.op(0, RegClass::Int, OpKind::Const(Value::I(1)));
        let b = fb.op(0, RegClass::Int, OpKind::Const(Value::I(2)));
        let p = fb.param(1, RegClass::Int);
        fb.param(1, RegClass::Int);
        fb.store(1, p, p);
        fb.0.blocks[0].term = Term::Br(Edge {
            to: 1,
            args: vec![a, b],
        });
        let mut st = CompileStats::default();
        assert!(dce(&mut fb.0, &mut st));
        assert_eq!(fb.0.blocks[1].params, [p]);
        assert_eq!(
            fb.0.blocks[0].term,
            Term::Br(Edge {
                to: 1,
                args: vec![a]
            })
        );
        // The pruned argument's definition dies on the next run.
        assert!(dce(&mut fb.0, &mut st));
        assert_eq!(kinds(&fb.0, 0), [OpKind::Const(Value::I(1))]);
    }

    #[test]
    fn simplify_merges_a_chain_out_of_block_order() {
        // 0 → 2 → 1, each edge passing one value on.
        let mut fb = Fb::new(3);
        let x = fb.param(0, RegClass::Int);
        let p2 = fb.param(2, RegClass::Int);
        let y = fb.op(2, RegClass::Int, OpKind::Un(crate::ast::UnOp::Neg, p2));
        let p1 = fb.param(1, RegClass::Int);
        fb.store(1, p1, p1);
        fb.0.blocks[0].term = Term::Br(Edge {
            to: 2,
            args: vec![x],
        });
        fb.0.blocks[2].term = Term::Br(Edge {
            to: 1,
            args: vec![y],
        });
        let mut st = CompileStats::default();
        simplify(&mut fb.0, &mut st);
        assert_eq!(st.blocks_merged, 2);
        assert_eq!(fb.0.blocks.len(), 1);
        assert_eq!(fb.0.blocks[0].term, Term::Ret);
        assert_eq!(
            kinds(&fb.0, 0),
            [
                OpKind::Un(crate::ast::UnOp::Neg, x),
                OpKind::StoreGlobal {
                    buf: 0,
                    idx: y,
                    src: y,
                    width: 1
                },
            ]
        );
    }
}
