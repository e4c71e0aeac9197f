//! Bytecode disassembler.
//!
//! Renders a lowered kernel as readable text — one instruction per line
//! with jump-target labels — so generator authors can inspect what their
//! OpenCL C actually lowered to. The `codegen_dump` example and compiler
//! debugging both use this.

use crate::lower::{CompiledKernel, Instr, MathFunc, WiFunc};
use std::collections::BTreeSet;
use std::fmt::Write as _;

fn wi_name(f: WiFunc) -> &'static str {
    match f {
        WiFunc::GlobalId => "get_global_id",
        WiFunc::LocalId => "get_local_id",
        WiFunc::GroupId => "get_group_id",
        WiFunc::GlobalSize => "get_global_size",
        WiFunc::LocalSize => "get_local_size",
        WiFunc::NumGroups => "get_num_groups",
    }
}

fn math_name(f: MathFunc) -> &'static str {
    match f {
        MathFunc::Min => "min",
        MathFunc::Max => "max",
        MathFunc::Fmin => "fmin",
        MathFunc::Fmax => "fmax",
        MathFunc::Clamp => "clamp",
        MathFunc::Fabs => "fabs",
        MathFunc::Sqrt => "sqrt",
        MathFunc::NativeRecip => "native_recip",
        MathFunc::Exp => "exp",
        MathFunc::Log => "log",
    }
}

/// Disassemble a compiled kernel into human-readable text.
#[must_use]
pub fn disassemble(k: &CompiledKernel) -> String {
    // Collect jump targets so they can be labelled.
    let mut targets = BTreeSet::new();
    for instr in &k.code {
        match instr {
            Instr::Jump { target } | Instr::JumpIfFalse { target, .. } => {
                targets.insert(*target);
            }
            _ => {}
        }
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "kernel {} ({} regs, {} barrier sites)",
        k.name, k.n_regs, k.n_barrier_sites
    );
    for (i, a) in k.checked.local_arrays.iter().enumerate() {
        let _ = writeln!(out, "  local[{i}] {} {}[{}]", a.base.name(), a.name, a.len);
    }
    for (b, p) in k.checked.buffer_params.iter().enumerate() {
        let _ = writeln!(
            out,
            "  buffer[{b}] {}{}* {}",
            if p.is_const { "const " } else { "" },
            p.base.name(),
            p.name
        );
    }
    for (pc, instr) in k.code.iter().enumerate() {
        if targets.contains(&pc) {
            let _ = writeln!(out, "L{pc}:");
        }
        let text = match instr {
            Instr::Const { dst, val } => format!("r{dst} = const {val:?}"),
            Instr::Mov { dst, src } => format!("r{dst} = r{src}"),
            Instr::Bin { op, dst, a, b } => format!("r{dst} = r{a} {op:?} r{b}"),
            Instr::Un { op, dst, a } => format!("r{dst} = {op:?} r{a}"),
            Instr::Convert { dst, src, base } => {
                format!("r{dst} = convert<{}> r{src}", base.name())
            }
            Instr::Broadcast { dst, src, width } => format!("r{dst} = broadcast{width} r{src}"),
            Instr::BuildVec { dst, base, parts } => {
                let regs: Vec<String> = parts.iter().map(|r| format!("r{r}")).collect();
                format!(
                    "r{dst} = ({}{})({})",
                    base.name(),
                    parts.len(),
                    regs.join(", ")
                )
            }
            Instr::Extract { dst, src, lane } => format!("r{dst} = r{src}.s{lane:x}"),
            Instr::InsertLane { vec, src, lane } => format!("r{vec}.s{lane:x} = r{src}"),
            Instr::Mad { dst, a, b, c } => format!("r{dst} = mad(r{a}, r{b}, r{c})"),
            Instr::Math {
                f,
                dst,
                args,
                n_args,
            } => {
                let regs: Vec<String> = args
                    .iter()
                    .take(*n_args as usize)
                    .map(|r| format!("r{r}"))
                    .collect();
                format!("r{dst} = {}({})", math_name(*f), regs.join(", "))
            }
            Instr::Wi { f, dst, dim } => format!("r{dst} = {}(r{dim})", wi_name(*f)),
            Instr::LoadGlobal {
                dst,
                buf,
                idx,
                width,
            } => {
                format!("r{dst} = gload{width} buffer[{buf}][r{idx}]")
            }
            Instr::StoreGlobal {
                buf,
                idx,
                src,
                width,
            } => {
                format!("gstore{width} buffer[{buf}][r{idx}] = r{src}")
            }
            Instr::LoadLocal {
                dst,
                arr,
                idx,
                width,
            } => {
                format!("r{dst} = lload{width} local[{arr}][r{idx}]")
            }
            Instr::StoreLocal {
                arr,
                idx,
                src,
                width,
            } => {
                format!("lstore{width} local[{arr}][r{idx}] = r{src}")
            }
            Instr::Jump { target } => format!("jump L{target}"),
            Instr::JumpIfFalse { cond, target } => format!("jumpz r{cond} L{target}"),
            Instr::Barrier { site } => format!("barrier #{site}"),
            Instr::Select { dst, cond, a, b } => format!("r{dst} = r{cond} ? r{a} : r{b}"),
            Instr::Ret => "ret".to_string(),
        };
        let _ = writeln!(out, "  {pc:>4}  {text}");
    }
    out
}

/// Disassemble the compiled-engine artefacts for a kernel: the
/// optimised SSA function followed by the pre-scheduled trace plan,
/// exactly as `Engine::Compiled` will execute it. This is the text the
/// golden-file check in CI diffs.
///
/// # Errors
/// The IR pipeline's decline reason when it rejects the kernel (such
/// kernels run on the reference interpreter instead).
pub fn disassemble_ir(k: &CompiledKernel) -> Result<String, String> {
    let (f, plan) = crate::ir::compile_parts(k)?;
    let mut out = String::new();
    let _ = writeln!(out, "ir {}:", k.name);
    out.push_str(&crate::ir::print::print_func(&f));
    let _ = writeln!(out, "trace {}:", k.name);
    out.push_str(&crate::ir::print::print_plan(&plan));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check;
    use crate::lower::lower;
    use crate::parser::parse;

    fn compile(src: &str) -> CompiledKernel {
        lower(&check(&parse(src).unwrap()).unwrap())
            .unwrap()
            .remove(0)
    }

    #[test]
    fn disassembly_lists_header_and_instructions() {
        let k = compile(
            r#"__kernel void k(__global const double* a, __global double* c, int n) {
                int i = get_global_id(0);
                if (i < n) { c[i] = mad(a[i], 2.0, 1.0); }
            }"#,
        );
        let d = disassemble(&k);
        assert!(d.starts_with("kernel k ("), "{d}");
        assert!(d.contains("buffer[0] const double* a"));
        assert!(d.contains("buffer[1] double* c"));
        assert!(d.contains("get_global_id"));
        assert!(d.contains("mad("));
        assert!(d.contains("gload1"));
        assert!(d.contains("gstore1"));
        assert!(d.contains("ret"));
    }

    #[test]
    fn jump_targets_are_labelled() {
        let k = compile(
            r#"__kernel void k(__global int* x, int n) {
                for (int i = 0; i < n; i += 1) { x[i] = i; }
            }"#,
        );
        let d = disassemble(&k);
        assert!(d.contains("jumpz"), "{d}");
        assert!(d.contains("jump L"), "{d}");
        // Every referenced label must be defined.
        for line in d.lines() {
            if let Some(idx) = line.find("jump L").or_else(|| line.find("jumpz ")) {
                let tail = &line[idx..];
                if let Some(lpos) = tail.find('L') {
                    let label: String = tail[lpos + 1..]
                        .chars()
                        .take_while(char::is_ascii_digit)
                        .collect();
                    assert!(
                        d.contains(&format!("L{label}:")),
                        "undefined label L{label} in:\n{d}"
                    );
                }
            }
        }
    }

    #[test]
    fn local_arrays_and_barriers_shown() {
        let k = compile(
            r#"__kernel void k(__global double* x) {
                __local double t[16];
                t[get_local_id(0)] = x[get_global_id(0)];
                barrier(1);
                x[get_global_id(0)] = t[0];
            }"#,
        );
        let d = disassemble(&k);
        assert!(d.contains("local[0] double t[16]"));
        assert!(d.contains("barrier #0"));
        assert!(d.contains("lstore1"));
        assert!(d.contains("lload1"));
    }

    #[test]
    fn ir_disassembly_shows_ssa_and_trace() {
        let k = compile(
            r#"__kernel void k(__global const float* a, __global float* c, int n) {
                int i = get_global_id(0);
                float acc = 0.0f;
                for (int j = 0; j < n; j = j + 1) { acc = acc + a[i]; }
                c[i] = acc * 2.0f + 1.0f;
            }"#,
        );
        let d = disassemble_ir(&k).expect("compiled engine should accept kernel");
        assert!(d.starts_with("ir k:"), "{d}");
        assert!(d.contains("b0("), "{d}");
        assert!(d.contains("trace k:"), "{d}");
        assert!(d.contains("group g"), "{d}");
        assert!(d.contains("ret"), "{d}");
    }

    #[test]
    fn vector_ops_render() {
        let k = compile(
            r#"__kernel void k(__global const float* a, __global float* c) {
                float4 v = vload4(0, a);
                float s = v.s2;
                vstore4((float4)(s, s, s, s), 0, c);
            }"#,
        );
        let d = disassemble(&k);
        assert!(d.contains("gload4"));
        assert!(d.contains(".s2"));
        assert!(d.contains("(float4)("));
        assert!(d.contains("gstore4"));
    }
}
