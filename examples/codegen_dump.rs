//! Dump the OpenCL C source the generator emits, and optionally what
//! the clc compiler makes of it.
//!
//! ```text
//! cargo run -p clgemm --example codegen_dump                   # paper's Tahiti DGEMM winner
//! cargo run -p clgemm --example codegen_dump -- pl             # PL variant of a small kernel
//! cargo run -p clgemm --example codegen_dump -- db             # DB variant
//! cargo run -p clgemm --example codegen_dump -- cayman-f32     # any Table II winner
//! cargo run -p clgemm --example codegen_dump -- direct-nt-f64  # the copy-free direct kernel
//! cargo run -p clgemm --example codegen_dump -- small --disasm # + lowered bytecode
//! cargo run -p clgemm --example codegen_dump -- small --ir     # + SSA and trace plan
//! ```
//!
//! `--disasm` appends the lowered register bytecode the reference
//! interpreter runs; `--ir` appends the optimised SSA and the trace
//! plan the compiled engine runs (`disassemble_ir`).

use clgemm::codegen::{generate, source_stats, KERNEL_NAME};
use clgemm::direct::{generate_direct, DirectParams, DIRECT_KERNEL_NAME};
use clgemm::paper_params::{all_winners, PaperEntry};
use clgemm::params::{small_test_params, tahiti_dgemm_best, Algorithm, KernelParams};
use clgemm::prelude::*;
use clgemm_clc::Program;

fn prec_tag(p: Precision) -> &'static str {
    match p {
        Precision::F32 => "f32",
        Precision::F64 => "f64",
    }
}

/// A Table II winner's name on the command line, e.g. `tahiti-f64`.
fn winner_name(e: &PaperEntry) -> String {
    format!("{:?}-{}", e.device, prec_tag(e.params.precision)).to_lowercase()
}

/// Every accepted kernel name besides the built-in variants.
fn named_kernels() -> Vec<String> {
    let mut names: Vec<String> = all_winners().iter().map(winner_name).collect();
    for ty in GemmType::ALL {
        for p in [Precision::F32, Precision::F64] {
            names.push(format!("direct-{ty}-{}", prec_tag(p)).to_lowercase());
        }
    }
    names
}

/// The packed-kernel parameters for `variant`, `None` when it names no
/// packed kernel.
fn packed_params(variant: &str) -> Option<KernelParams> {
    let with_algorithm = |algorithm| {
        let mut p = small_test_params(Precision::F64);
        p.algorithm = algorithm;
        p
    };
    match variant {
        "" | "tahiti" => Some(tahiti_dgemm_best()),
        "pl" => Some(with_algorithm(Algorithm::Pl)),
        "db" => Some(with_algorithm(Algorithm::Db)),
        "small" => Some(small_test_params(Precision::F32)),
        _ => all_winners()
            .into_iter()
            .find(|e| winner_name(e) == variant)
            .map(|e| e.params),
    }
}

/// The direct-kernel parameters for `direct-<type>-<precision>`.
fn direct_params(variant: &str) -> Option<DirectParams> {
    let rest = variant.strip_prefix("direct-")?;
    let (ty, prec) = rest.split_once('-')?;
    let precision = match prec {
        "f32" => Precision::F32,
        "f64" => Precision::F64,
        _ => return None,
    };
    Some(DirectParams::default_for(ty.parse().ok()?, precision))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let variant = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map(|a| a.to_lowercase())
        .unwrap_or_default();
    let (source, name) = if let Some(params) = packed_params(&variant) {
        let gen = generate(&params).expect("valid parameter set");
        println!("// parameters: {}", params.describe());
        println!(
            "// resources: {} register slots/work-item, {} B local memory/work-group",
            params.regs_per_wi(),
            params.lds_bytes()
        );
        let stats = source_stats(&gen);
        println!(
            "// source: {} lines, {} bytes, {} mad() sites",
            stats.lines, stats.bytes, stats.mads
        );
        (gen.source, KERNEL_NAME)
    } else if let Some(params) = direct_params(&variant) {
        let gen = generate_direct(&params).expect("valid direct parameters");
        println!("// direct kernel: {params:?}");
        (gen.source, DIRECT_KERNEL_NAME)
    } else {
        eprintln!("unknown kernel {variant:?}");
        eprintln!(
            "known: tahiti (default) pl db small {}",
            named_kernels().join(" ")
        );
        std::process::exit(2);
    };

    // Prove the emitted source survives the frontend before printing it.
    let prog = Program::compile(&source).expect("generated source must compile");
    let kernel = prog.kernel(name).expect("kernel present");
    println!("// compiles: yes (clgemm-clc frontend)\n");
    println!("{source}");

    if args.iter().any(|a| a == "--disasm") {
        println!("\n// ---- lowered bytecode ----");
        println!("{}", clgemm_clc::disassemble(kernel.compiled()));
    }
    if args.iter().any(|a| a == "--ir") {
        println!("\n// ---- SSA and trace plan ----");
        match clgemm_clc::disassemble_ir(kernel.compiled()) {
            Ok(text) => println!("{text}"),
            Err(e) => println!("// the compiled engine declines this kernel: {e}"),
        }
    }
}
