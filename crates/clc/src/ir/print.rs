//! Deterministic text renderings of the SSA IR and the trace plan,
//! used by the disassembler and by the committed golden-file test.

use super::trace::{Bank, PBlock, POp, PTerm, Slot, TracePlan, EXIT};
use super::{Func, Op, OpKind, Term};
use std::fmt::Write;

/// Render an SSA function.
#[must_use]
pub fn print_func(f: &Func) -> String {
    let mut s = String::new();
    for (bi, b) in f.blocks.iter().enumerate() {
        let params: Vec<String> = b.params.iter().map(|p| format!("v{p}")).collect();
        let _ = writeln!(s, "b{bi}({}):", params.join(", "));
        for op in &b.ops {
            let _ = writeln!(s, "  {}", fmt_op(op));
        }
        let _ = writeln!(s, "  {}", fmt_term(&b.term));
    }
    s
}

fn fmt_op(op: &Op) -> String {
    let dst = match op.dst {
        Some(d) => format!("v{d} = "),
        None => String::new(),
    };
    let body = match &op.kind {
        OpKind::Const(v) => format!("const {v:?}"),
        OpKind::Bin(o, a, b) => format!("{o:?} v{a}, v{b}"),
        OpKind::Un(o, a) => format!("{o:?} v{a}"),
        OpKind::Convert(a, base) => format!("convert v{a} to {base:?}"),
        OpKind::Broadcast(a, w) => format!("broadcast v{a} x{w}"),
        OpKind::BuildVec(base, parts) => {
            let ps: Vec<String> = parts.iter().map(|p| format!("v{p}")).collect();
            format!("build {base:?} [{}]", ps.join(", "))
        }
        OpKind::Extract(a, l) => format!("extract v{a}[{l}]"),
        OpKind::Insert(a, b, l) => format!("insert v{a}[{l}] = v{b}"),
        OpKind::Mad(a, b, c) => format!("mad v{a}, v{b}, v{c}"),
        OpKind::MadLane(v, l, b, c) => format!("madlane v{v}[{l}], v{b}, v{c}"),
        OpKind::Math(f, args, n) => {
            let ps: Vec<String> = args[..*n as usize]
                .iter()
                .map(|p| format!("v{p}"))
                .collect();
            format!("{f:?}({})", ps.join(", "))
        }
        OpKind::Wi(f, d) => format!("{f:?}(v{d})"),
        OpKind::LoadGlobal { buf, idx, width } => format!("ldg buf{buf}[v{idx}] x{width}"),
        OpKind::StoreGlobal {
            buf,
            idx,
            src,
            width,
        } => format!("stg buf{buf}[v{idx}] x{width} = v{src}"),
        OpKind::LoadLocal { arr, idx, width } => format!("ldl arr{arr}[v{idx}] x{width}"),
        OpKind::StoreLocal {
            arr,
            idx,
            src,
            width,
        } => format!("stl arr{arr}[v{idx}] x{width} = v{src}"),
        OpKind::Select(c, a, b) => format!("select v{c} ? v{a} : v{b}"),
    };
    format!("{dst}{body}")
}

fn fmt_edge(e: &super::Edge) -> String {
    let args: Vec<String> = e.args.iter().map(|a| format!("v{a}")).collect();
    format!("b{}({})", e.to, args.join(", "))
}

fn fmt_term(t: &Term) -> String {
    match t {
        Term::Br(e) => format!("br {}", fmt_edge(e)),
        Term::CondBr { cond, t, f } => {
            format!("condbr v{cond} ? {} : {}", fmt_edge(t), fmt_edge(f))
        }
        Term::Barrier { site, next } => format!("barrier #{site} -> {}", fmt_edge(next)),
        Term::Ret => "ret".to_string(),
    }
}

/// Render a trace plan: slot-group table, seeds, then per-block ops.
#[must_use]
pub fn print_plan(plan: &TracePlan) -> String {
    let mut s = String::new();
    let st = &plan.stats;
    let _ = writeln!(
        s,
        "; ops {} -> {} (folded {}, cse {}, dce {}, merged {}, \
         unrolled {} loops / {} iters, spills {})",
        st.ops_in,
        st.ops_out,
        st.folded,
        st.cse,
        st.dce,
        st.blocks_merged,
        st.unrolled_loops,
        st.unrolled_iters,
        st.spills
    );
    for (gi, g) in plan.groups.iter().enumerate() {
        let bank = match g.bank {
            Bank::I => "i64",
            Bank::F => "f32",
            Bank::D => "f64",
        };
        let kind = if g.varying { "varying" } else { "uniform" };
        let _ = writeln!(
            s,
            "group g{gi}: {bank} x{} {kind}, {} slots",
            g.lanes, g.n_slots
        );
    }
    for (slot, v) in &plan.consts {
        let _ = writeln!(s, "seed {} = {v:?}", fmt_slot(*slot));
    }
    for (slot, reg) in &plan.entries {
        let _ = writeln!(s, "seed {} = r{reg}", fmt_slot(*slot));
    }
    for (bi, b) in plan.blocks.iter().enumerate() {
        let _ = writeln!(s, "b{bi}:  ; {} instrs/wi", b.cost.instrs);
        print_pblock(&mut s, b);
    }
    s
}

fn print_pblock(s: &mut String, b: &PBlock) {
    for op in &b.ops {
        let _ = writeln!(s, "  {}", fmt_pop(op));
    }
    match &b.term {
        PTerm::Br { to, copies } => {
            for c in copies {
                let _ = writeln!(s, "  {}", fmt_pop(c));
            }
            let _ = writeln!(s, "  br b{to}");
        }
        PTerm::CondBr {
            cond,
            t,
            f,
            t_copies,
            f_copies,
            join,
        } => {
            for c in t_copies {
                let _ = writeln!(s, "  [t] {}", fmt_pop(c));
            }
            for c in f_copies {
                let _ = writeln!(s, "  [f] {}", fmt_pop(c));
            }
            let join = match *join {
                None => String::new(),
                Some(EXIT) => " ; varying, joins at exit".to_string(),
                Some(r) => format!(" ; varying, joins at b{r}"),
            };
            let _ = writeln!(s, "  condbr {} ? b{t} : b{f}{join}", fmt_slot(*cond));
        }
        PTerm::Barrier { to, copies } => {
            for c in copies {
                let _ = writeln!(s, "  {}", fmt_pop(c));
            }
            let _ = writeln!(s, "  barrier -> b{to}");
        }
        PTerm::Ret => {
            let _ = writeln!(s, "  ret");
        }
    }
}

fn fmt_slot(s: Slot) -> String {
    if s == Slot::NONE {
        "_".to_string()
    } else {
        format!("g{}s{}", s.group, s.slot)
    }
}

fn fmt_pop(op: &POp) -> String {
    let mut s = format!("{:?}", op.k);
    s.make_ascii_lowercase();
    let mut out = String::new();
    if op.d != Slot::NONE {
        let _ = write!(out, "{} = ", fmt_slot(op.d));
    }
    let _ = write!(out, "{s}");
    for slot in [op.a, op.b, op.c] {
        if slot != Slot::NONE {
            let _ = write!(out, " {}", fmt_slot(slot));
        }
    }
    for slot in &op.ex {
        let _ = write!(out, " {}", fmt_slot(*slot));
    }
    if op.aux != 0 {
        let _ = write!(out, " aux={}", op.aux);
    }
    if s.starts_with("ldg") || s.starts_with("stg") || s.starts_with("ldl") || s.starts_with("stl")
    {
        let _ = write!(out, " buf={}", op.buf);
    }
    out
}
