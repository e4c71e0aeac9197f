//! Engine-equivalence property tests: the compiled engine (SSA
//! pipeline → pre-scheduled trace code, divergent branches under
//! per-work-item masks) must be indistinguishable from the reference
//! interpreter — bit-identical output buffers and equal `DynStats` on
//! every generated kernel, and identical failure classes on kernels that
//! must fail testing. The packed GEMM corpus is uniform; the copy-free
//! direct kernel and the hand-written masked cases diverge. A separate
//! decline-list test pins down exactly which kernel shapes the trace
//! compiler refuses (they run on the reference interpreter).
//!
//! Cases come from a seeded [`clgemm_shim::Rng`], so failures reproduce
//! deterministically.

use clgemm::codegen::{generate, KERNEL_NAME};
use clgemm::direct::{generate_direct, DirectParams, DIRECT_KERNEL_NAME};
use clgemm::params::KernelParams;
use clgemm_blas::layout::PackedDims;
use clgemm_blas::scalar::Precision;
use clgemm_blas::{GemmType, Trans};
use clgemm_clc::vm::DynStats;
use clgemm_clc::{Arg, BufData, Engine, ExecOptions, Kernel, NdRange, Program, RuntimeError};
use clgemm_integration::valid_params;
use clgemm_shim::Rng;

/// Exact bit pattern of a buffer, so `-0.0 != 0.0` and NaN payloads
/// count (PartialEq on floats would blur both).
fn bits(b: &BufData) -> Vec<u64> {
    match b {
        BufData::F32(v) => v.iter().map(|x| u64::from(x.to_bits())).collect(),
        BufData::F64(v) => v.iter().map(|x| x.to_bits()).collect(),
        BufData::I32(v) => v.iter().map(|x| *x as u32 as u64).collect(),
    }
}

fn fill(rng: &mut Rng, len: usize, prec: Precision) -> BufData {
    match prec {
        Precision::F32 => BufData::F32(
            (0..len)
                .map(|_| (rng.range(0, 2000) as f32) / 1000.0 - 1.0)
                .collect(),
        ),
        Precision::F64 => BufData::F64(
            (0..len)
                .map(|_| (rng.range(0, 2000) as f64) / 1000.0 - 1.0)
                .collect(),
        ),
    }
}

/// Launch on both engines and require the same outcome: equal
/// `DynStats` and bit-identical buffers on success, the same error
/// class on failure. Returns the reference's result.
fn same_on_both(
    what: &str,
    kernel: &Kernel<'_>,
    nd: NdRange,
    args: &[Arg],
    bufs: &[BufData],
    opts: ExecOptions,
) -> Result<DynStats, RuntimeError> {
    let mut ref_bufs = bufs.to_vec();
    let reference = ExecOptions {
        engine: Engine::Reference,
        ..opts
    };
    let want = kernel.launch(nd, args, &mut ref_bufs, &reference);
    let mut got_bufs = bufs.to_vec();
    let got = kernel.launch(nd, args, &mut got_bufs, &opts);
    match (&got, &want) {
        (Ok(g), Ok(w)) => {
            assert_eq!(g, w, "{what}: DynStats diverged");
            for (i, (gb, rb)) in got_bufs.iter().zip(&ref_bufs).enumerate() {
                assert_eq!(bits(gb), bits(rb), "{what}: buffer {i} not bit-identical");
            }
        }
        (Err(g), Err(w)) => assert_eq!(
            std::mem::discriminant(g),
            std::mem::discriminant(w),
            "{what}: failure class differs: compiled {g} / reference {w}"
        ),
        _ => panic!("{what}: outcomes differ: compiled {got:?} / reference {want:?}"),
    }
    want
}

/// Both engines on one generated kernel; panics on any divergence.
/// Returns whether the trace compiler accepted the kernel.
fn check_case(case: usize, rng: &mut Rng, p: &KernelParams) -> bool {
    // Two blocks per dimension so several work-groups run (the compiled
    // engine parallelises across them) and k covers two KWG tiles.
    let (m, n) = (2 * p.mwg, 2 * p.nwg);
    let k = 2 * p.k_multiple();
    let gen = generate(p).unwrap_or_else(|e| panic!("case {case}: generate: {e}"));
    let prog = Program::compile(&gen.source)
        .unwrap_or_else(|e| panic!("case {case}: compile: {e}\n{}", gen.source));
    let kernel = prog.kernel(KERNEL_NAME).expect("kernel present");

    let a_dims = PackedDims::new(k, m, p.mwg, p.kwg).unwrap();
    let b_dims = PackedDims::new(k, n, p.nwg, p.kwg).unwrap();
    let bufs = vec![
        fill(rng, a_dims.len(), p.precision),
        fill(rng, b_dims.len(), p.precision),
        fill(rng, m * n, p.precision),
    ];
    let mut args = vec![
        Arg::Buf(0),
        Arg::Buf(1),
        Arg::Buf(2),
        Arg::I32(m as i32),
        Arg::I32(n as i32),
        Arg::I32(k as i32),
    ];
    args.extend(scalars(p.precision, 0.75, -0.5));
    let what = format!("case {case}: {}", p.describe());
    same_on_both(
        &what,
        &kernel,
        gen.ndrange(m, n),
        &args,
        &bufs,
        ExecOptions::default(),
    )
    .unwrap_or_else(|e| panic!("{what}: launch: {e}"));
    kernel.compiled().trace.is_some()
}

fn scalars(prec: Precision, alpha: f64, beta: f64) -> [Arg; 2] {
    match prec {
        Precision::F32 => [Arg::F32(alpha as f32), Arg::F32(beta as f32)],
        Precision::F64 => [Arg::F64(alpha), Arg::F64(beta)],
    }
}

/// ≥200 random parameter sets: identical buffers and stats on both
/// engines, and every generated kernel must actually compile (a silent
/// fallback would make the equivalence test vacuous).
#[test]
fn engines_agree_on_random_params() {
    let mut rng = Rng::new(0xFA57_E9E5);
    let cases = 200;
    let mut traced = 0usize;
    for case in 0..cases {
        let p = valid_params(&mut rng);
        traced += usize::from(check_case(case, &mut rng, &p));
    }
    assert_eq!(
        traced, cases,
        "every generated kernel should be accepted by the trace compiler"
    );
}

/// The paper's copy-free direct kernel guards every load and store with
/// `row < M` / `col < N`, so its edge work-groups diverge. ≥64 seeded
/// cases over random blockings, all four GEMM types and both precisions
/// at ragged sizes — including `K < KWI` and `M` or `N` below one
/// work-group's tile — must compile and match the reference.
#[test]
fn direct_kernels_agree_on_random_params() {
    let mut rng = Rng::new(0xD1EC_7000);
    let cases = 64;
    for case in 0..cases {
        let ty = GemmType::ALL[case % 4];
        let precision = if case % 8 < 4 {
            Precision::F32
        } else {
            Precision::F64
        };
        let (mdimc, ndimc) = (rng.range(1, 9), rng.range(1, 9));
        let p = DirectParams {
            mwg: mdimc * rng.range(1, 4),
            nwg: ndimc * rng.range(1, 4),
            mdimc,
            ndimc,
            kwi: rng.range(1, 5),
            ty,
            precision,
        };
        // Every fourth case undercuts a tile or the unroll depth.
        let (m, n, k) = match case % 4 {
            0 => (rng.range(1, p.mwg + 1), rng.range(1, 40), rng.range(1, 30)),
            1 => (rng.range(1, 40), rng.range(1, p.nwg + 1), rng.range(1, 30)),
            2 => (rng.range(1, 40), rng.range(1, 40), rng.range(1, p.kwi + 1)),
            _ => (rng.range(1, 48), rng.range(1, 48), rng.range(1, 48)),
        };
        let pad = rng.range(0, 3);
        let (a_rows, a_cols) = if ty.ta == Trans::No { (m, k) } else { (k, m) };
        let (b_rows, b_cols) = if ty.tb == Trans::No { (k, n) } else { (n, k) };
        let (lda, ldb, ldc) = (a_rows + pad, b_rows + pad, m + pad);
        let bufs = vec![
            fill(&mut rng, lda * a_cols, precision),
            fill(&mut rng, ldb * b_cols, precision),
            fill(&mut rng, ldc * n, precision),
        ];
        let mut args = vec![Arg::Buf(0), Arg::Buf(1), Arg::Buf(2)];
        args.extend([m, n, k, lda, ldb, ldc].map(|x| Arg::I32(x as i32)));
        args.extend(scalars(precision, 1.25, -0.75));
        let gen = generate_direct(&p).unwrap_or_else(|e| panic!("direct {case}: {e}"));
        let prog = Program::compile(&gen.source).expect("direct kernel compiles");
        let kernel = prog.kernel(DIRECT_KERNEL_NAME).expect("kernel present");
        let what = format!("direct {case}: {p:?} at {m}x{n}x{k} (pad {pad})");
        assert!(
            kernel.compiled().trace.is_some(),
            "{what}: declined: {:?}",
            kernel.compiled().trace_decline
        );
        same_on_both(
            &what,
            &kernel,
            p.ndrange(m, n),
            &args,
            &bufs,
            ExecOptions::default(),
        )
        .unwrap_or_else(|e| panic!("{what}: launch: {e}"));
    }
}

/// Hand-written divergent kernels, each compared against the reference:
/// masked traps and bounds checks, early returns, nested and looping
/// divergence, a varying branch between barriers, and a divergent
/// endless loop cut by the step limit.
#[test]
fn masked_execution_matches_reference() {
    let n = 32usize;
    let tight = ExecOptions {
        step_limit: 2_000,
        ..Default::default()
    };
    let cases: &[(&str, &[Arg], ExecOptions, bool)] = &[
        // Integer division by zero on the lanes the guard disables.
        (
            r"__kernel void k(__global float* y, int n) {
                int i = get_global_id(0);
                int d = i - 3;
                if (d != 0) { y[i] = (float)(96 / d + 96 % d); }
            }",
            &[Arg::Buf(0), Arg::I32(32)],
            ExecOptions::default(),
            true,
        ),
        // Out-of-bounds loads and stores behind a guard.
        (
            r"__kernel void k(__global float* y, int n) {
                int i = get_global_id(0) * 3;
                if (i < n) { y[i] = y[i + 1] * 2.0f; }
            }",
            &[Arg::Buf(0), Arg::I32(30)],
            ExecOptions::default(),
            true,
        ),
        // An unguarded out-of-bounds store still fails.
        (
            r"__kernel void k(__global float* y, int n) {
                int i = get_global_id(0);
                if (i > 20) { y[i + n] = 1.0f; }
            }",
            &[Arg::Buf(0), Arg::I32(16)],
            ExecOptions::default(),
            false,
        ),
        // Early return retires only the returning work-items.
        (
            r"__kernel void k(__global float* y, int n) {
                int i = get_global_id(0);
                if (i >= n) return;
                y[i] = y[i] * 3.0f + (float)i;
            }",
            &[Arg::Buf(0), Arg::I32(19)],
            ExecOptions::default(),
            true,
        ),
        // Nested varying if/else with a join after each level.
        (
            r"__kernel void k(__global float* y, int n) {
                int i = get_global_id(0);
                float v = y[i];
                if (i % 3 == 0) {
                    if (v > 0.0f) { v = v * 2.0f; } else { v = v - 1.0f; }
                    v = v + 0.5f;
                } else {
                    if (i < n) { v = -v; }
                }
                y[i] = v;
            }",
            &[Arg::Buf(0), Arg::I32(11)],
            ExecOptions::default(),
            true,
        ),
        // The former decline list: a bounds guard, and loops whose trip
        // count depends on loaded data or on the work-item id.
        (
            r"__kernel void k(__global float* y, int n) {
                int i = get_global_id(0);
                if (i < n) { y[i] = y[i] + 1.0f; }
            }",
            &[Arg::Buf(0), Arg::I32(21)],
            ExecOptions::default(),
            true,
        ),
        (
            r"__kernel void k(__global float* y) {
                int i = get_global_id(0);
                float x = y[i];
                while (x > 0.5f) { x = x - 1.0f; }
                y[i] = x;
            }",
            &[Arg::Buf(0)],
            ExecOptions::default(),
            true,
        ),
        (
            r"__kernel void k(__global float* y) {
                int i = get_global_id(0);
                float acc = 0.0f;
                for (int j = 0; j < i + 1; j = j + 1) { acc = acc + 2.0f; }
                y[i] = acc;
            }",
            &[Arg::Buf(0)],
            ExecOptions::default(),
            true,
        ),
        // Tree reduction: a varying `if` between barriers.
        (
            r"__kernel void k(__global float* y) {
                __local float scratch[8];
                int l = get_local_id(0);
                scratch[l] = y[get_global_id(0)];
                barrier(1);
                int stride = 4;
                while (stride > 0) {
                    if (l < stride) {
                        scratch[l] = scratch[l] + scratch[l + stride];
                    }
                    barrier(1);
                    stride = stride / 2;
                }
                if (l == 0) { y[get_global_id(0)] = scratch[0]; }
            }",
            &[Arg::Buf(0)],
            ExecOptions::default(),
            true,
        ),
        // Even work-items spin forever; the step limit cuts them off.
        (
            r"__kernel void k(__global float* y) {
                int i = get_global_id(0);
                while (i % 2 == 0) { i = i + 2; }
                y[get_global_id(0)] = (float)i;
            }",
            &[Arg::Buf(0)],
            tight,
            false,
        ),
    ];
    for (case, (src, args, opts, ok)) in cases.iter().enumerate() {
        let prog = Program::compile(src).unwrap_or_else(|e| panic!("masked {case}: {e}"));
        let kernel = prog.kernel("k").expect("kernel present");
        assert!(
            kernel.compiled().trace.is_some(),
            "masked {case}: declined: {:?}",
            kernel.compiled().trace_decline
        );
        let init = BufData::F32((0..n).map(|i| (i as f32) / 3.0 - 4.0).collect());
        let r = same_on_both(
            &format!("masked {case}"),
            &kernel,
            NdRange::d1(n, 8),
            args,
            &[init],
            *opts,
        );
        assert_eq!(r.is_ok(), *ok, "masked {case}: {r:?}");
    }
}

/// Under masks each work-item counts only the blocks it ran: both
/// sides of a divergent `if` execute, but a step limit equal to one
/// work-item's own count must still pass on both engines.
#[test]
fn step_limit_counts_each_work_item_under_masks() {
    let src = r"__kernel void k(__global float* y) {
        int i = get_global_id(0);
        float acc = y[i];
        if (i % 2 == 0) {
            for (int j = 0; j < 40; j = j + 1) { acc = acc * 0.5f + 1.0f; }
        } else {
            for (int j = 0; j < 40; j = j + 1) { acc = acc * 0.25f - 1.0f; }
        }
        y[i] = acc;
    }";
    let prog = Program::compile(src).unwrap();
    let kernel = prog.kernel("k").unwrap();
    assert!(kernel.compiled().trace.is_some());
    let (n, nd) = (8usize, NdRange::d1(8, 8));
    let bufs = [BufData::F32((0..n).map(|i| i as f32).collect())];
    let full = same_on_both(
        "unlimited",
        &kernel,
        nd,
        &[Arg::Buf(0)],
        &bufs,
        Default::default(),
    )
    .expect("runs");
    // The `then` side ends in one extra jump, so its work-items run one
    // step more than the others: the ceiling of the mean is the longest.
    let own = full.instrs.div_ceil(n as u64);
    let exact = ExecOptions {
        step_limit: own,
        ..Default::default()
    };
    same_on_both("exact limit", &kernel, nd, &[Arg::Buf(0)], &bufs, exact).expect("fits");
    let short = ExecOptions {
        step_limit: own - 1,
        ..Default::default()
    };
    assert!(same_on_both("short limit", &kernel, nd, &[Arg::Buf(0)], &bufs, short).is_err());
}

/// The explicit decline list: the kernel shapes the trace compiler
/// refuses, each with its pinned reason — a barrier under a divergent
/// branch, including one after a divergent `return`. Declined kernels
/// run on the reference interpreter, so the compiled route must fail
/// with the reference's exact error. If a pipeline change starts
/// accepting one of these (or declining something new), this test is
/// the place that documents it.
#[test]
fn compiled_engine_decline_list() {
    let declines = [
        r"__kernel void k(__global double* y) {
            int l = get_local_id(0);
            if (l == 0) { barrier(1); }
            y[get_global_id(0)] = (double)l;
        }",
        r"__kernel void k(__global double* y) {
            int l = get_local_id(0);
            if (l == 1) return;
            barrier(1);
            y[get_global_id(0)] = (double)l;
        }",
        r"__kernel void k(__global double* y) {
            int l = get_local_id(0);
            int i = 0;
            while (i < l) { barrier(1); i = i + 1; }
            y[get_global_id(0)] = (double)i;
        }",
    ];
    for (case, src) in declines.iter().enumerate() {
        let prog = Program::compile(src).unwrap_or_else(|e| panic!("decline {case}: {e}"));
        let kernel = prog.kernel("k").expect("kernel present");
        let ck = kernel.compiled();
        assert!(ck.trace.is_none(), "decline {case}: unexpectedly accepted");
        let reason = ck.trace_decline.as_deref().unwrap_or("");
        assert!(
            reason.contains("barrier under a work-item-divergent branch"),
            "decline {case}: reason {reason:?}"
        );
        let nd = NdRange::d1(8, 4);
        let run = |opts: &ExecOptions| {
            let mut bufs = vec![BufData::F64(vec![0.0; 8])];
            kernel
                .launch(nd, &[Arg::Buf(0)], &mut bufs, opts)
                .unwrap_err()
        };
        let re = run(&ExecOptions::reference());
        assert!(
            matches!(re, RuntimeError::BarrierDivergence { .. }),
            "decline {case}: {re}"
        );
        assert_eq!(run(&ExecOptions::default()).to_string(), re.to_string());
    }
}

/// A kernel whose work-items diverge at a barrier must fail with the
/// same error on both engines (the compiled route declines this kernel
/// and reaches the failure on the reference interpreter).
#[test]
fn divergence_fails_identically_on_all_engines() {
    let src = r#"
        __kernel void div(__global double* y) {
            int l = get_local_id(0);
            if (l == 0) { barrier(1); }
            y[get_global_id(0)] = (double)l;
        }
    "#;
    let prog = Program::compile(src).unwrap();
    let kernel = prog.kernel("div").unwrap();
    let nd = NdRange::d1(8, 4);
    let [ce, re] = [Engine::Compiled, Engine::Reference].map(|engine| {
        let opts = ExecOptions {
            engine,
            ..Default::default()
        };
        let mut bufs = vec![BufData::F64(vec![0.0; 8])];
        kernel
            .launch(nd, &[Arg::Buf(0)], &mut bufs, &opts)
            .unwrap_err()
    });
    assert!(matches!(re, RuntimeError::BarrierDivergence { .. }), "{re}");
    assert_eq!(ce.to_string(), re.to_string());
}

/// A kernel where distinct work-groups write the same global cell must
/// fail as a global race on both engines. Attribution (which pair of
/// groups is reported) is schedule-dependent on the parallel engine,
/// so only the error class is compared.
#[test]
fn inter_group_race_fails_identically_on_all_engines() {
    let src = r#"
        __kernel void clash(__global double* y) {
            y[0] = (double)get_global_id(0);
        }
    "#;
    let prog = Program::compile(src).unwrap();
    let kernel = prog.kernel("clash").unwrap();
    let nd = NdRange::d1(8, 2);
    for opts in [ExecOptions::default(), ExecOptions::reference()] {
        let mut bufs = vec![BufData::F64(vec![0.0])];
        let err = kernel
            .launch(nd, &[Arg::Buf(0)], &mut bufs, &opts)
            .unwrap_err();
        assert!(
            matches!(err, RuntimeError::GlobalRace { .. }),
            "{:?}: {err}",
            opts.engine
        );
    }
}
