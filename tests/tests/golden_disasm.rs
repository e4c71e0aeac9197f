//! Golden-file checks for the compiled engine's disassembly.
//!
//! The flagship kernel (BA, f32, the `small_test_params` tile set used
//! by the 1024³ acceptance case) is compiled through the SSA pipeline
//! and its `disassemble_ir` text — optimised SSA followed by the
//! pre-scheduled trace plan — is diffed against a committed golden
//! file. Any pass or allocator change that moves the schedule shows up
//! here as a reviewable diff instead of a silent perf change.
//!
//! A wider corpus — the twelve Table II winners, the copy-free direct
//! kernel for every GEMM type and precision, and 200 seeded random
//! parameter sets — is pinned by one FNV-1a 64 digest of each kernel's
//! disassembly, so a compiler change that claims not to move any plan
//! can prove it.
//!
//! Regenerate both after an intentional change with:
//!
//! ```text
//! CLGEMM_BLESS=1 cargo test -p clgemm-integration --test golden_disasm
//! ```

use clgemm::codegen::{generate, KERNEL_NAME};
use clgemm::direct::{generate_direct, DirectParams, DIRECT_KERNEL_NAME};
use clgemm::paper_params::all_winners;
use clgemm::params::{small_test_params, Algorithm};
use clgemm_blas::scalar::Precision;
use clgemm_blas::GemmType;
use clgemm_clc::Program;
use clgemm_integration::valid_params;
use clgemm_shim::Rng;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/flagship_ba_f32.ir");
const CORPUS_DIGEST: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/ir_corpus.digest");

#[test]
fn flagship_disassembly_matches_golden_file() {
    let mut p = small_test_params(Precision::F32);
    p.algorithm = Algorithm::Ba;
    let gen = generate(&p).expect("generate flagship kernel");
    let prog = Program::compile(&gen.source).expect("compile");
    let kernel = prog.kernel(KERNEL_NAME).expect("kernel present");
    let got = clgemm_clc::disassemble_ir(kernel.compiled())
        .expect("trace compiler must accept the flagship kernel");

    if std::env::var_os("CLGEMM_BLESS").is_some() {
        std::fs::write(GOLDEN, &got).expect("write golden file");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN)
        .expect("golden file missing — run once with CLGEMM_BLESS=1");
    if got != want {
        // A full assert_eq! dump is unreadable at this size; show the
        // first divergent line instead.
        for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
            assert_eq!(
                g,
                w,
                "flagship disassembly diverges from golden file at line {} \
                 (regenerate with CLGEMM_BLESS=1 if intentional)",
                i + 1
            );
        }
        panic!(
            "flagship disassembly length changed: {} vs {} lines \
             (regenerate with CLGEMM_BLESS=1 if intentional)",
            got.lines().count(),
            want.lines().count()
        );
    }
}

/// FNV-1a, 64-bit: a stable, dependency-free fingerprint of one text.
fn fnv1a64(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `disassemble_ir` of the named kernel in `source`.
fn disasm(source: &str, name: &str) -> String {
    let prog = Program::compile(source).expect("compile");
    let kernel = prog.kernel(name).expect("kernel present");
    clgemm_clc::disassemble_ir(kernel.compiled())
        .unwrap_or_else(|e| panic!("trace compiler declined {name}: {e}"))
}

/// `(label, disassembly)` for every corpus kernel, in a fixed order.
fn corpus() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for e in all_winners() {
        let gen = generate(&e.params).expect("Table II parameters generate");
        let label = format!("table2/{:?}/{:?}", e.device, e.params.precision);
        out.push((label, disasm(&gen.source, KERNEL_NAME)));
    }
    for ty in GemmType::ALL {
        for precision in [Precision::F32, Precision::F64] {
            let p = DirectParams::default_for(ty, precision);
            let gen = generate_direct(&p).expect("default direct parameters generate");
            let label = format!("direct/{ty}/{precision:?}");
            out.push((label, disasm(&gen.source, DIRECT_KERNEL_NAME)));
        }
    }
    let mut rng = Rng::new(0x1D15_A55E);
    for i in 0..200 {
        let p = valid_params(&mut rng);
        let gen = generate(&p).expect("valid parameters generate");
        out.push((format!("random/{i:03}"), disasm(&gen.source, KERNEL_NAME)));
    }
    out
}

#[test]
fn corpus_disassembly_matches_digest_file() {
    let got: String = corpus()
        .iter()
        .map(|(label, text)| format!("{label} {:016x}\n", fnv1a64(text)))
        .collect();
    if std::env::var_os("CLGEMM_BLESS").is_some() {
        std::fs::write(CORPUS_DIGEST, &got).expect("write digest file");
        return;
    }
    let want = std::fs::read_to_string(CORPUS_DIGEST)
        .expect("digest file missing — run once with CLGEMM_BLESS=1");
    let moved: Vec<&str> = got
        .lines()
        .zip(want.lines())
        .filter(|(g, w)| g != w)
        .map(|(g, _)| g.split_once(' ').map_or(g, |(label, _)| label))
        .collect();
    assert!(
        moved.is_empty() && got.lines().count() == want.lines().count(),
        "disassembly moved for {} of {} kernels: {} \
         (regenerate with CLGEMM_BLESS=1 if intentional)",
        moved.len(),
        got.lines().count(),
        moved.join(", ")
    );
}

/// The plan part of a `disassemble_ir` text: the `bN:` blocks, each with
/// its op and terminator lines.
fn plan_blocks(text: &str) -> Vec<Vec<&str>> {
    let plan = text.split_once("\ntrace ").expect("a trace plan").1;
    let mut blocks: Vec<Vec<&str>> = Vec::new();
    for line in plan.lines() {
        if line.starts_with('b') && line.contains(':') {
            blocks.push(Vec::new());
        } else if let Some(b) = blocks.last_mut() {
            b.push(line.trim());
        }
    }
    blocks
}

/// `(header, latch)` of every loop in a plan: a branch from block
/// `latch` back to block `header <= latch`.
fn plan_loops(blocks: &[Vec<&str>]) -> Vec<(usize, usize)> {
    let mut loops = Vec::new();
    for (bi, b) in blocks.iter().enumerate() {
        let term = b.last().expect("a terminator");
        let targets = term
            .split_whitespace()
            .filter_map(|w| w.strip_prefix('b')?.parse::<usize>().ok());
        loops.extend(targets.filter(|&t| t <= bi).map(|t| (t, bi)));
    }
    loops
}

#[test]
fn direct_kernel_k_loops_compare_and_splat_no_loop_invariants() {
    // Forwarding pass-through parameters lets `licm` lift the row and
    // column guards' compares out of the `K` loops, and makes `M`, `N`
    // and the leading dimensions read the entry parameters' seeded
    // splats instead of splatting a loop parameter in every block.
    for ty in GemmType::ALL {
        for precision in [Precision::F32, Precision::F64] {
            let p = DirectParams::default_for(ty, precision);
            let gen = generate_direct(&p).expect("default direct parameters generate");
            let text = disasm(&gen.source, DIRECT_KERNEL_NAME);
            let varying: Vec<String> = text
                .lines()
                .filter_map(|l| l.strip_prefix("group "))
                .filter(|l| l.contains(" varying"))
                .map(|l| l.split(':').next().unwrap_or_default().to_string())
                .collect();
            let entry_slots: Vec<&str> = text
                .lines()
                .filter_map(|l| l.strip_prefix("seed ")?.split_once(" = r"))
                .map(|(slot, _)| slot)
                .collect();
            let blocks = plan_blocks(&text);
            let loops = plan_loops(&blocks);
            assert!(!loops.is_empty(), "direct {ty} {precision:?}: no K loop");
            for (header, latch) in loops {
                for line in blocks[header..=latch].iter().flatten() {
                    let Some((dst, rhs)) = line.split_once(" = ") else {
                        continue;
                    };
                    let dst_group = dst.trim_start_matches("[t] ").trim_start_matches("[f] ");
                    let dst_group = dst_group.split('s').next().unwrap_or_default();
                    assert!(
                        !(rhs.starts_with("cmpi ") && varying.iter().any(|g| g == dst_group)),
                        "direct {ty} {precision:?}: a per-work-item compare in the K loop b{header}..=b{latch}: {line}"
                    );
                    if let Some(src) = rhs.strip_prefix("splati ") {
                        assert!(
                            !entry_slots.contains(&src),
                            "direct {ty} {precision:?}: an entry parameter splatted in the K loop b{header}..=b{latch}: {line}"
                        );
                    }
                }
            }
        }
    }
}
