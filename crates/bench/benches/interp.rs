//! Interpreter wall-clock bench: the reference engine vs the compiled
//! engine (SSA pipeline → pre-scheduled trace code, divergent branches
//! under per-work-item masks) on functional GEMM launches.
//!
//! Grid: 3 algorithms × 2 precisions × {small, large} NDRange for the
//! packed kernel, the copy-free direct kernel (whose bounds guards
//! diverge) in both precisions at a ragged 249³, both engines per
//! cell, plus a flagship 1024³ f32 BA case. Full runs write
//! `BENCH_interp.json` at the repo root with per-case seconds and
//! compiled-vs-reference speedups.
//!
//! Smoke mode (`CLGEMM_BENCH_SMOKE=1`, used by CI) times one launch per
//! engine and **exits non-zero** unless the compiled engine is at least
//! 10× faster than the reference on the large BA f32 case, and beats
//! the reference on the direct f32 case by at least the speed-up of the
//! fast VM it replaced there. The flagship case only runs when
//! `CLGEMM_INTERP_FLAGSHIP=1` (it interprets a full 1024³ GEMM on the
//! reference engine).

use clgemm::codegen::{generate, KERNEL_NAME};
use clgemm::direct::{generate_direct, DirectParams, DIRECT_KERNEL_NAME};
use clgemm::params::{small_test_params, Algorithm, KernelParams};
use clgemm_blas::layout::PackedDims;
use clgemm_blas::scalar::Precision;
use clgemm_blas::GemmType;
use clgemm_clc::{Arg, BufData, Engine, ExecOptions, NdRange, Program};
use clgemm_shim::bench::{fmt_secs, Harness};
use clgemm_shim::json::Json;
use std::time::Instant;

/// Smoke-gate floor for compiled over reference on the large BA f32
/// case. `BENCH_interp.json` records ~70×; 10× absorbs CI noise while
/// still catching a compiled path that has degraded toward
/// interpretation speed.
const COMPILED_VS_REFERENCE_FLOOR: f64 = 10.0;

/// The fast VM's speed-up over the reference on the direct f32 case
/// (NN, 249³, race detection off), measured on a 2-vCPU AVX-512 host
/// just before the fast VM was deleted in favour of masked compiled
/// execution: best of two runs each, 9.5× (8.3× for f64). The compiled
/// engine must beat the reference by at least this much there, so the
/// path that replaced the fast VM is never slower than it was.
const FAST_VM_DIRECT_SPEEDUP: f64 = 9.5;

/// Edge of the direct cases: a multiple of nothing the kernel blocks by.
const DIRECT_EDGE: usize = 249;

struct Case {
    name: &'static str,
    prog: Program,
    nd: NdRange,
    args: Vec<Arg>,
    bufs: Vec<BufData>,
}

fn fill(len: usize, prec: Precision, salt: usize) -> BufData {
    match prec {
        Precision::F32 => BufData::F32(
            (0..len)
                .map(|i| ((i * 37 + salt) % 23) as f32 / 23.0 - 0.5)
                .collect(),
        ),
        Precision::F64 => BufData::F64(
            (0..len)
                .map(|i| ((i * 53 + salt) % 29) as f64 / 29.0 - 0.5)
                .collect(),
        ),
    }
}

fn build_case(p: &KernelParams, m: usize, n: usize, k: usize) -> Case {
    let gen = generate(p).expect("generate");
    let prog = Program::compile(&gen.source).expect("compile");
    let a_dims = PackedDims::new(k, m, p.mwg, p.kwg).expect("a dims");
    let b_dims = PackedDims::new(k, n, p.nwg, p.kwg).expect("b dims");
    let bufs = vec![
        fill(a_dims.len(), p.precision, 11),
        fill(b_dims.len(), p.precision, 7),
        fill(m * n, p.precision, 5),
    ];
    let mut args = vec![
        Arg::Buf(0),
        Arg::Buf(1),
        Arg::Buf(2),
        Arg::I32(m as i32),
        Arg::I32(n as i32),
        Arg::I32(k as i32),
    ];
    match p.precision {
        Precision::F32 => {
            args.push(Arg::F32(0.75));
            args.push(Arg::F32(-0.5));
        }
        Precision::F64 => {
            args.push(Arg::F64(0.75));
            args.push(Arg::F64(-0.5));
        }
    }
    Case {
        name: KERNEL_NAME,
        prog,
        nd: gen.ndrange(m, n),
        args,
        bufs,
    }
}

/// The copy-free direct kernel on tight column-major `e × e` operands.
fn direct_case(precision: Precision, e: usize) -> Case {
    let p = DirectParams::default_for(GemmType::NN, precision);
    let gen = generate_direct(&p).expect("generate direct");
    let prog = Program::compile(&gen.source).expect("compile");
    let mut args = vec![Arg::Buf(0), Arg::Buf(1), Arg::Buf(2)];
    args.extend([Arg::I32(e as i32); 6]);
    match precision {
        Precision::F32 => args.extend([Arg::F32(0.75), Arg::F32(-0.5)]),
        Precision::F64 => args.extend([Arg::F64(0.75), Arg::F64(-0.5)]),
    }
    Case {
        name: DIRECT_KERNEL_NAME,
        prog,
        nd: p.ndrange(e, e),
        args,
        bufs: vec![
            fill(e * e, precision, 11),
            fill(e * e, precision, 7),
            fill(e * e, precision, 5),
        ],
    }
}

fn launch(case: &mut Case, engine: Engine) -> u64 {
    let opts = ExecOptions {
        engine,
        // Race detection is a validation tool (on by default in tests,
        // where the engines suite compares both engines under it);
        // this bench times the engines themselves, so it is off — for
        // every engine alike.
        detect_races: false,
        ..Default::default()
    };
    let kernel = case.prog.kernel(case.name).expect("kernel");
    let stats = kernel
        .launch(case.nd, &case.args, &mut case.bufs, &opts)
        .expect("launch");
    stats.instrs
}

/// One timed run (not harness-batched) — for the flagship case and the
/// smoke-mode regression gate, where a single launch is representative.
fn time_once(case: &mut Case, engine: Engine) -> f64 {
    let t = Instant::now();
    std::hint::black_box(launch(case, engine));
    t.elapsed().as_secs_f64()
}

fn params_for(algorithm: Algorithm, precision: Precision) -> KernelParams {
    let mut p = small_test_params(precision);
    p.algorithm = algorithm;
    // DB/PL need the operands staged through local memory.
    if algorithm != Algorithm::Ba {
        p.local_a = true;
        p.local_b = true;
    }
    p
}

fn algo_tag(a: Algorithm) -> &'static str {
    match a {
        Algorithm::Ba => "ba",
        Algorithm::Pl => "pl",
        Algorithm::Db => "db",
    }
}

fn prec_tag(p: Precision) -> &'static str {
    match p {
        Precision::F32 => "f32",
        Precision::F64 => "f64",
    }
}

fn engine_tag(e: Engine) -> &'static str {
    match e {
        Engine::Reference => "reference",
        Engine::Compiled => "compiled",
    }
}

const ENGINES: [Engine; 2] = [Engine::Reference, Engine::Compiled];

fn main() {
    let mut h = Harness::from_env();
    let smoke = h.smoke;

    // Smoke mode: the CI regression gates, one launch per engine.
    if smoke {
        let p = params_for(Algorithm::Ba, Precision::F32);
        let (m, n, k) = (128, 128, 128);
        let mut case = build_case(&p, m, n, k);
        let compiled = time_once(&mut case, Engine::Compiled);
        let reference = time_once(&mut case, Engine::Reference);
        println!(
            "interp smoke gate (ba_f32 {m}x{n}x{k}): compiled {} / reference {} ({:.2}x)",
            fmt_secs(compiled),
            fmt_secs(reference),
            reference / compiled
        );
        assert!(
            reference / compiled >= COMPILED_VS_REFERENCE_FLOOR,
            "compiled engine ({}) below the {COMPILED_VS_REFERENCE_FLOOR}x floor over reference ({})",
            fmt_secs(compiled),
            fmt_secs(reference)
        );
        let e = DIRECT_EDGE;
        let mut case = direct_case(Precision::F32, e);
        let compiled = time_once(&mut case, Engine::Compiled);
        let reference = time_once(&mut case, Engine::Reference);
        println!(
            "interp smoke gate (direct_f32 {e}^3): compiled {} / reference {} ({:.2}x, fast VM was {FAST_VM_DIRECT_SPEEDUP}x)",
            fmt_secs(compiled),
            fmt_secs(reference),
            reference / compiled
        );
        assert!(
            reference / compiled >= FAST_VM_DIRECT_SPEEDUP,
            "compiled engine ({}) below the fast VM's {FAST_VM_DIRECT_SPEEDUP}x over reference ({}) on the direct kernel",
            fmt_secs(compiled),
            fmt_secs(reference)
        );
        return;
    }

    // Full grid: 3 algorithms × 2 precisions × {small, large}, all
    // three engines per cell.
    let mut rows: Vec<(String, f64)> = Vec::new();
    for algorithm in Algorithm::ALL {
        for precision in [Precision::F32, Precision::F64] {
            let p = params_for(algorithm, precision);
            for (size_tag, m, n, k) in [("small", 32, 32, 16), ("large", 128, 128, 128)] {
                let mut case = build_case(&p, m, n, k);
                for engine in ENGINES {
                    let name = format!(
                        "interp/{}_{}_{}_{}",
                        algo_tag(algorithm),
                        prec_tag(precision),
                        size_tag,
                        engine_tag(engine)
                    );
                    h.bench(&name, || launch(&mut case, engine));
                }
            }
        }
    }
    // The direct kernel at a ragged edge: its edge work-groups diverge.
    for precision in [Precision::F32, Precision::F64] {
        let mut case = direct_case(precision, DIRECT_EDGE);
        for engine in ENGINES {
            let name = format!(
                "interp/direct_{}_{}",
                prec_tag(precision),
                engine_tag(engine)
            );
            h.bench(&name, || launch(&mut case, engine));
        }
    }
    rows.extend(h.results().iter().cloned());

    // Flagship: 1024³ f32 BA functional launch, one run per engine.
    // Gated behind an env var — the reference run interprets ~10¹⁰
    // bytecode steps.
    if std::env::var_os("CLGEMM_INTERP_FLAGSHIP").is_some_and(|v| v == "1") {
        let p = params_for(Algorithm::Ba, Precision::F32);
        let (m, n, k) = (1024, 1024, 1024);
        let mut case = build_case(&p, m, n, k);
        let compiled = time_once(&mut case, Engine::Compiled);
        println!(
            "interp/flagship_ba_f32_1024_compiled: {}",
            fmt_secs(compiled)
        );
        let reference = time_once(&mut case, Engine::Reference);
        println!(
            "interp/flagship_ba_f32_1024_reference: {} (compiled speedup {:.2}x)",
            fmt_secs(reference),
            reference / compiled
        );
        rows.push(("interp/flagship_ba_f32_1024_compiled".into(), compiled));
        rows.push(("interp/flagship_ba_f32_1024_reference".into(), reference));
    }

    // Record results (and pairwise speedups) at the repo root.
    let mut entries: Vec<Json> = Vec::new();
    for (name, secs) in &rows {
        entries.push(Json::obj(vec![
            ("name", Json::Str(name.clone())),
            ("seconds", Json::Num(*secs)),
        ]));
    }
    let secs_of = |name: &str| rows.iter().find(|(n, _)| n == name).map(|(_, s)| *s);
    let ratio_rows = |num_suffix: &str, den_suffix: &str| -> Vec<Json> {
        let mut out = Vec::new();
        for (name, secs) in &rows {
            if let Some(base) = name.strip_suffix(num_suffix) {
                if let Some(den) = secs_of(&format!("{base}{den_suffix}")) {
                    if *secs > 0.0 {
                        out.push(Json::obj(vec![
                            ("case", Json::Str(base.trim_end_matches('_').to_string())),
                            ("speedup", Json::Num(den / secs)),
                        ]));
                    }
                }
            }
        }
        out
    };
    let doc = Json::obj(vec![
        ("bench", Json::Str("interp".into())),
        ("results", Json::Arr(entries)),
        (
            "compiled_vs_reference",
            Json::Arr(ratio_rows("_compiled", "_reference")),
        ),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_interp.json");
    std::fs::write(path, doc.to_string_compact()).expect("write BENCH_interp.json");
    println!("wrote {path}");
}
