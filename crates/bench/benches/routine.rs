//! Routine-layer host data path bench: the reference pipeline (serial
//! tuned-layout packing, `run_native`, staged `C`, fresh allocations) vs
//! the fast engine (panel packing, register-blocked microkernel updating
//! `C` in place, reusable workspace).
//!
//! Full runs time packing one operand and the kernel in isolation (old
//! vs new) plus whole `gemm_with` calls for both precisions, a
//! microkernel shape sweep around the shape the register budget derives,
//! and a flagship 1024³ f32 NN case once per engine. Results land in
//! `BENCH_routine.json` at the repo root with pairwise speedups, the
//! sweep's GFlop/s and the tile each precision runs.
//!
//! Smoke mode (`CLGEMM_BENCH_SMOKE=1`, used by CI) is the regression
//! gate: the fast engine must not be slower than the reference on a
//! mid-size call; steady-state repeat calls — including hybrid
//! direct-path traffic — must perform **zero** workspace growths; the
//! checked-in `BENCH_routine.json` must record the selected tiles; the
//! flagship fast time must stay within slack of that baseline; and the
//! microkernel must beat `run_native` by a fixed ratio at 256³.

use clgemm::executor::{panel_widths, run_microkernel, run_native, run_panels};
use clgemm::params::{small_test_params, tahiti_dgemm_best};
use clgemm::routine::{GemmOptions, GemmPath, HybridGemm, TunedGemm};
use clgemm::tile::{microkernel_tile, TileDecision, VECTOR_BITS, VECTOR_REGISTERS};
use clgemm_blas::matrix::{Matrix, StorageOrder};
use clgemm_blas::pack::{pack_into, pack_operand, pack_panels, stage_c, PackSpec};
use clgemm_blas::scalar::{Precision, Scalar};
use clgemm_blas::workspace::{Workspace, WorkspaceScalar};
use clgemm_blas::{GemmType, Trans};
use clgemm_device::DeviceId;
use clgemm_shim::bench::{fmt_secs, Harness};
use clgemm_shim::json::Json;
use clgemm_shim::simd::SimdLevel;
use std::time::Instant;

fn tuned() -> TunedGemm {
    TunedGemm::new(
        DeviceId::Tahiti.spec(),
        small_test_params(Precision::F64),
        small_test_params(Precision::F32),
    )
}

fn matrices<T: WorkspaceScalar>(m: usize, n: usize, k: usize) -> (Matrix<T>, Matrix<T>, Matrix<T>) {
    (
        Matrix::test_pattern(m, k, StorageOrder::ColMajor, 1),
        Matrix::test_pattern(k, n, StorageOrder::ColMajor, 2),
        Matrix::test_pattern(m, n, StorageOrder::ColMajor, 3),
    )
}

/// One whole-routine call through the chosen engine.
fn call<T: WorkspaceScalar>(
    tg: &TunedGemm,
    a: &Matrix<T>,
    b: &Matrix<T>,
    c: &mut Matrix<T>,
    ws: &mut Workspace,
    opts: &GemmOptions,
) {
    tg.gemm_with(
        GemmType::NN,
        T::from_f64(1.25),
        a,
        b,
        T::from_f64(-0.5),
        c,
        ws,
        opts,
    );
}

fn time_once(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

fn prec_tag<T: Scalar>() -> &'static str {
    if T::PREC_TAG == 'D' {
        "f64"
    } else {
        "f32"
    }
}

/// The kernel-phase problem at one size: `op(A)`/`op(B)` packed both
/// ways, the tuned layouts `run_native` reads and the microkernel panels
/// of an `mr × nr` tile, plus a `C` to update.
struct KernelCase<T: Scalar> {
    p: clgemm::params::KernelParams,
    a: Matrix<T>,
    b: Matrix<T>,
    pa: Vec<T>,
    da: clgemm_blas::layout::PackedDims,
    pb: Vec<T>,
    db: clgemm_blas::layout::PackedDims,
    c: Matrix<T>,
}

impl<T: WorkspaceScalar> KernelCase<T> {
    fn new(m: usize, n: usize, k: usize) -> KernelCase<T> {
        let p = small_test_params(T::PRECISION);
        let a = Matrix::<T>::test_pattern(m, k, StorageOrder::ColMajor, 1);
        let b = Matrix::<T>::test_pattern(k, n, StorageOrder::ColMajor, 4);
        let spec = |trans, layout, wwg| PackSpec {
            trans,
            layout,
            wwg,
            kwg: p.kwg,
        };
        let (pa, da) = pack_operand(&a, spec(Trans::Yes, p.layout_a, p.mwg), k, m);
        let (pb, db) = pack_operand(&b, spec(Trans::No, p.layout_b, p.nwg), k, n);
        let c = Matrix::<T>::test_pattern(m, n, StorageOrder::ColMajor, 3);
        KernelCase {
            p,
            a,
            b,
            pa,
            da,
            pb,
            db,
            c,
        }
    }

    /// `op(A)` and `op(B)` packed into `wa`- and `wb`-wide panels.
    fn panels(&self, wa: usize, wb: usize) -> (Vec<T>, Vec<T>) {
        let (m, k, n) = (self.a.rows(), self.a.cols(), self.b.cols());
        let mut pa = vec![T::ZERO; k * m.div_ceil(wa) * wa];
        let mut pb = vec![T::ZERO; k * n.div_ceil(wb) * wb];
        pack_panels(self.a.view(), Trans::Yes, wa, &mut pa, false);
        pack_panels(self.b.view(), Trans::No, wb, &mut pb, false);
        (pa, pb)
    }

    /// `op(A)` and `op(B)` packed for the build's microkernel.
    fn microkernel_panels(&self) -> (Vec<T>, Vec<T>) {
        let (wa, wb) = panel_widths(T::PRECISION, self.c.view().is_col_major());
        self.panels(wa, wb)
    }

    /// One reference kernel call (tuned layouts, staged `C`).
    fn reference(&self, staged: &mut [T]) {
        let (p, da, db) = (&self.p, self.da, self.db);
        run_native(
            da.width,
            db.width,
            da.k,
            T::from_f64(1.25),
            &self.pa,
            da,
            p.layout_a,
            &self.pb,
            db,
            p.layout_b,
            T::from_f64(-0.5),
            staged,
        );
    }

    /// One call of the build's microkernel on panels packed for it.
    fn fast(&mut self, pa: &[T], pb: &[T]) {
        let k = self.a.cols();
        let pad = self.da.k > k;
        let (alpha, beta) = (T::from_f64(1.25), T::from_f64(-0.5));
        run_microkernel(k, alpha, pa, pb, beta, self.c.view_mut(), pad);
    }
}

/// Phase-split benches for one precision at one size: packing one
/// operand (tuned layout vs microkernel panels) and the kernel itself.
fn bench_phases<T: WorkspaceScalar>(h: &mut Harness, m: usize, n: usize, k: usize) {
    let mut case = KernelCase::<T>::new(m, n, k);
    let p = case.p;
    let tag = prec_tag::<T>();
    let spec = PackSpec {
        trans: Trans::Yes,
        layout: p.layout_a,
        wwg: p.mwg,
        kwg: p.kwg,
    };
    let mut buf = vec![T::ZERO; case.da.len()];
    h.bench(&format!("routine/pack_{tag}_reference"), || {
        pack_into(&case.a, spec, k, m, &mut buf, case.da);
    });
    let (wa, _) = panel_widths(T::PRECISION, true);
    let mut panels = vec![T::ZERO; k * m.div_ceil(wa) * wa];
    h.bench(&format!("routine/pack_{tag}_fast"), || {
        pack_panels(case.a.view(), Trans::Yes, wa, &mut panels, false);
    });

    let mut staged = stage_c(&case.c, p.mwg, p.nwg);
    h.bench(&format!("routine/kernel_{tag}_reference"), || {
        case.reference(&mut staged);
    });
    let (pa, pb) = case.microkernel_panels();
    h.bench(&format!("routine/kernel_{tag}_fast"), || {
        case.fast(&pa, &pb)
    });
}

/// Run `run_panels` with each listed `MR × NR` tile on the kernel-phase
/// problem, recording `routine/tile_{MR}x{NR}_{tag}`. `C` is
/// column-major, so the tiles run over its transpose, as
/// `run_microkernel` runs them.
macro_rules! sweep {
    ($h:expr, $t:ty, $case:expr, $(($mr:literal, $nr:literal)),+ $(,)?) => {{
        let case: &mut KernelCase<$t> = $case;
        let k = case.a.cols();
        let pad = case.da.k > k;
        $(
            let (pa, pb) = case.panels($nr, $mr);
            $h.bench(&format!("routine/tile_{}x{}_{}", $mr, $nr, prec_tag::<$t>()), || {
                let c = case.c.view_mut().transposed();
                run_panels::<$t, $mr, $nr>(k, 1.25, &pb, &pa, -0.5, c, pad);
            });
        )+
    }};
}

/// Microkernel shape sweep: the shape the register budget derives for
/// each precision next to taller, shorter, wider and narrower ones,
/// timed on the kernel-phase problem. The derivation picks the shape;
/// this sweep confirms it (the smoke gate holds the pick to a measured
/// speed). The lists assume the 8/4-lane, 32-register AVX-512 build.
fn bench_tile_sweep(h: &mut Harness, m: usize, n: usize, k: usize) {
    let mut case = KernelCase::<f32>::new(m, n, k);
    sweep!(
        h,
        f32,
        &mut case,
        (4, 32),
        (6, 32),
        (8, 32),
        (14, 32),
        (6, 24),
        (8, 24),
        (6, 16),
        (8, 16),
        (12, 16),
        (14, 16),
        (16, 16),
        (12, 8),
    );
    let mut case = KernelCase::<f64>::new(m, n, k);
    sweep!(
        h,
        f64,
        &mut case,
        (4, 16),
        (6, 16),
        (8, 16),
        (14, 16),
        (6, 12),
        (8, 12),
        (6, 8),
        (8, 8),
        (12, 8),
        (14, 8),
        (16, 8),
        (12, 4),
    );
}

/// `run_native` time over the build's microkernel time on the
/// kernel-phase problem at `n³`: one reference call against the best of
/// five microkernel calls.
fn kernel_ratio<T: WorkspaceScalar>(n: usize) -> f64 {
    let mut case = KernelCase::<T>::new(n, n, n);
    let (pa, pb) = case.microkernel_panels();
    let mut staged = stage_c(&case.c, case.p.mwg, case.p.nwg);
    let reference = time_once(|| case.reference(&mut staged));
    case.fast(&pa, &pb);
    let fast = (0..5)
        .map(|_| time_once(|| case.fast(&pa, &pb)))
        .fold(f64::INFINITY, f64::min);
    reference / fast
}

/// Whole-call benches for one precision at one size.
fn bench_calls<T: WorkspaceScalar>(h: &mut Harness, m: usize, n: usize, k: usize) {
    let tg = tuned();
    let (a, b, c0) = matrices::<T>(m, n, k);
    let tag = prec_tag::<T>();
    let mut ws = Workspace::new();
    let mut c = c0.clone();
    h.bench(&format!("routine/call_{tag}_reference"), || {
        call(&tg, &a, &b, &mut c, &mut ws, &GemmOptions::reference());
    });
    h.bench(&format!("routine/call_{tag}_fast"), || {
        call(&tg, &a, &b, &mut c, &mut ws, &GemmOptions::default());
    });
}

fn main() {
    let mut h = Harness::from_env();
    let smoke = h.smoke;

    if smoke {
        // CI regression gate 1: fast call no slower than reference.
        let tg = tuned();
        let (m, n, k) = (320, 320, 320);
        let (a, b, c0) = matrices::<f32>(m, n, k);
        let mut ws = Workspace::new();
        let mut c = c0.clone();
        let fast = time_once(|| call(&tg, &a, &b, &mut c, &mut ws, &GemmOptions::default()));
        let mut c = c0.clone();
        let reference = time_once(|| {
            call(
                &tg,
                &a,
                &b,
                &mut c,
                &mut Workspace::new(),
                &GemmOptions::reference(),
            )
        });
        println!(
            "routine smoke gate (nn_f32 {m}^3): fast {} vs reference {} ({:.2}x)",
            fmt_secs(fast),
            fmt_secs(reference),
            reference / fast
        );
        assert!(
            fast <= reference,
            "fast host path ({}) slower than reference ({})",
            fmt_secs(fast),
            fmt_secs(reference)
        );
        // CI regression gate 2: steady-state calls allocate nothing.
        let grows = ws.grows();
        assert!(grows > 0, "first fast call must size the workspace");
        let mut c = c0.clone();
        call(&tg, &a, &b, &mut c, &mut ws, &GemmOptions::default());
        assert_eq!(
            ws.grows(),
            grows,
            "steady-state repeat call grew the workspace"
        );
        println!("routine smoke gate: steady-state workspace growths = 0");

        // CI regression gate 3: hybrid direct-path traffic rides the
        // shared gemm_with/Workspace plumbing and never grows the pool.
        let hybrid = HybridGemm::new(TunedGemm::new(
            DeviceId::Tahiti.spec(),
            tahiti_dgemm_best(),
            small_test_params(Precision::F32),
        ));
        let mut hws = Workspace::new();
        let (ha, hb, hc0) = matrices::<f64>(48, 48, 48);
        for _ in 0..3 {
            let mut hc = hc0.clone();
            let (path, _) = hybrid.gemm_with(
                GemmType::NN,
                2.0,
                &ha,
                &hb,
                0.5,
                &mut hc,
                &mut hws,
                &GemmOptions::default(),
            );
            assert_eq!(path, GemmPath::Direct, "48^3 must prefer the direct path");
        }
        assert_eq!(hws.grows(), 0, "direct-path traffic grew the workspace");
        println!("routine smoke gate: direct-path workspace growths = 0");

        // CI regression gate 4: the checked-in bench record must name
        // the tiles the selector chose.
        let json_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_routine.json");
        let doc =
            Json::parse(&std::fs::read_to_string(json_path).expect("read BENCH_routine.json"))
                .expect("parse BENCH_routine.json");
        let tiles = doc
            .get("selected_tile")
            .and_then(Json::as_arr)
            .expect("BENCH_routine.json must record the selected tiles");
        assert!(!tiles.is_empty(), "selected_tile must list both precisions");
        for t in tiles {
            assert!(
                t.get("selected").and_then(Json::as_str).is_some(),
                "each selected_tile entry names its tile"
            );
        }
        println!(
            "routine smoke gate: {} selected tiles recorded in BENCH_routine.json",
            tiles.len()
        );

        // CI regression gate 5: warm flagship fast time within slack of
        // the checked-in baseline (catches microkernel regressions that
        // the fast-vs-reference gate alone would miss).
        let baseline = doc
            .get("results")
            .and_then(Json::as_arr)
            .expect("results array")
            .iter()
            .find(|e| {
                e.get("name").and_then(Json::as_str) == Some("routine/flagship_nn_f32_1024_fast")
            })
            .and_then(|e| e.get("seconds").and_then(Json::as_f64))
            .expect("flagship baseline in BENCH_routine.json");
        let (m, n, k) = (1024, 1024, 1024);
        let (a, b, c0) = matrices::<f32>(m, n, k);
        let mut ws = Workspace::new();
        let mut c = c0.clone();
        call(&tg, &a, &b, &mut c, &mut ws, &GemmOptions::default());
        // Best of three: one-shot timings on a shared CI box are noisy
        // and the gate must only trip on real regressions.
        let flagship = (0..3)
            .map(|_| {
                let mut c = c0.clone();
                time_once(|| call(&tg, &a, &b, &mut c, &mut ws, &GemmOptions::default()))
            })
            .fold(f64::INFINITY, f64::min);
        // Generous slack: CI machines are noisy; this catches 2x-class
        // regressions, not jitter.
        let limit = baseline * 1.75;
        println!(
            "routine smoke gate (flagship 1024^3 f32): {} vs baseline {} (limit {})",
            fmt_secs(flagship),
            fmt_secs(baseline),
            fmt_secs(limit)
        );
        assert!(
            flagship <= limit,
            "flagship fast path regressed: {} > {} (baseline {} x 1.75)",
            fmt_secs(flagship),
            fmt_secs(limit),
            fmt_secs(baseline)
        );

        // CI regression gate 6: the microkernel against the reference
        // kernel on the full bench's 256³ kernel-phase problem. The bars
        // are 1.75× the ratios the tuned-layout tile kernel this one
        // replaced reached there (33.6× f32, 17.8× f64), so a shape that
        // falls out of registers or out of the vectoriser's good graces
        // (10× slower in the shape sweep) trips it.
        for (precision, bar) in [(Precision::F32, 1.75 * 33.6), (Precision::F64, 1.75 * 17.8)] {
            let ratio = match precision {
                Precision::F32 => kernel_ratio::<f32>(256),
                Precision::F64 => kernel_ratio::<f64>(256),
            };
            println!(
                "routine smoke gate (kernel 256^3 {precision}, tile {}): {ratio:.1}x run_native (bar {bar:.1}x)",
                microkernel_tile(precision)
            );
            assert!(
                ratio >= bar,
                "{precision} microkernel only {ratio:.1}x run_native, below {bar:.1}x"
            );
        }

        // CI regression gate 7: observability overhead, two claims.
        //
        // (a) Tracing *disabled* (the default, what the flagship above
        // ran with) must cost the routine under 5% of a flagship call.
        // A wall-clock diff against the checked-in baseline cannot
        // resolve 5% on a shared box (session-to-session jitter here
        // exceeds it), so measure the cost directly: time the exact
        // per-call instrumentation bundle — the spans, histogram
        // observations and counter bumps one `gemm_with` performs —
        // and bound its share of the measured flagship time. The
        // bundle is deliberately over-counted (double the real ops).
        let reg = clgemm_trace::Registry::new();
        let gate_hist = reg.histogram("gate_seconds", 1e-9);
        let gate_counter = reg.counter("gate_total");
        const ROUNDS: u32 = 100_000;
        let t = Instant::now();
        for i in 0..ROUNDS {
            // One gemm_with records ~7 spans, 5 histogram observations
            // and ~2 counter bumps; charge 14/10/4.
            for _ in 0..14 {
                let _s = clgemm_trace::span!("bench.gate", u64::from(i));
            }
            for _ in 0..10 {
                gate_hist.observe_value(1.5e-4);
            }
            for _ in 0..4 {
                gate_counter.inc();
            }
        }
        let per_call = t.elapsed().as_secs_f64() / f64::from(ROUNDS);
        let disabled_limit = flagship * 0.05;
        println!(
            "routine smoke gate (tracing off): {} instrumentation per call \
             vs limit {} (flagship x 0.05)",
            fmt_secs(per_call),
            fmt_secs(disabled_limit)
        );
        assert!(
            per_call <= disabled_limit,
            "disabled instrumentation costs more than 5% of a flagship call: {} > {}",
            fmt_secs(per_call),
            fmt_secs(disabled_limit)
        );

        // (b) Tracing *enabled* must stay within 15% of the disabled
        // path. Interleave the two configurations in the same session
        // and compare minima, so machine load cancels instead of
        // masquerading as overhead.
        // Symmetric sampling (same round count per configuration) so
        // neither side gets extra chances at a lucky minimum.
        let mut disabled_min = f64::INFINITY;
        let mut traced_min = f64::INFINITY;
        for _ in 0..4 {
            clgemm_trace::set_enabled(true);
            let mut c = c0.clone();
            traced_min = traced_min.min(time_once(|| {
                call(&tg, &a, &b, &mut c, &mut ws, &GemmOptions::default())
            }));
            clgemm_trace::set_enabled(false);
            let mut c = c0.clone();
            disabled_min = disabled_min.min(time_once(|| {
                call(&tg, &a, &b, &mut c, &mut ws, &GemmOptions::default())
            }));
        }
        let enabled_limit = disabled_min * 1.15;
        println!(
            "routine smoke gate (tracing on): {} vs limit {} \
             (disabled {} x 1.15, {} span drops)",
            fmt_secs(traced_min),
            fmt_secs(enabled_limit),
            fmt_secs(disabled_min),
            clgemm_trace::ring::dropped_events()
        );
        assert!(
            traced_min <= enabled_limit,
            "enabled tracing costs more than 15%: {} > {}",
            fmt_secs(traced_min),
            fmt_secs(enabled_limit)
        );
        return;
    }

    // Full grid: phase splits, whole calls and the register-tile shape
    // sweep, both precisions.
    let (m, n, k) = (256, 256, 256);
    bench_phases::<f32>(&mut h, m, n, k);
    bench_phases::<f64>(&mut h, m, n, k);
    bench_calls::<f32>(&mut h, m, n, k);
    bench_calls::<f64>(&mut h, m, n, k);
    bench_tile_sweep(&mut h, m, n, k);
    let mut rows: Vec<(String, f64)> = h.results().to_vec();

    // Flagship: 1024³ f32 NN, one whole call per engine.
    {
        let tg = tuned();
        let (m, n, k) = (1024, 1024, 1024);
        let (a, b, c0) = matrices::<f32>(m, n, k);
        let mut ws = Workspace::new();
        let mut c = c0.clone();
        // Warm the workspace so the flagship fast call measures the
        // steady-state (zero-allocation) path.
        call(&tg, &a, &b, &mut c, &mut ws, &GemmOptions::default());
        // Best of three: this row is the baseline the smoke gates
        // compare against, so it must be a stable minimum rather than
        // one scheduler-jittered shot.
        let fast = (0..3)
            .map(|_| {
                let mut c = c0.clone();
                time_once(|| call(&tg, &a, &b, &mut c, &mut ws, &GemmOptions::default()))
            })
            .fold(f64::INFINITY, f64::min);
        println!("routine/flagship_nn_f32_1024_fast: {}", fmt_secs(fast));
        let mut c = c0.clone();
        let reference = time_once(|| {
            call(
                &tg,
                &a,
                &b,
                &mut c,
                &mut Workspace::new(),
                &GemmOptions::reference(),
            )
        });
        println!(
            "routine/flagship_nn_f32_1024_reference: {} (fast speedup {:.2}x)",
            fmt_secs(reference),
            reference / fast
        );
        rows.push(("routine/flagship_nn_f32_1024_fast".into(), fast));
        rows.push(("routine/flagship_nn_f32_1024_reference".into(), reference));

        // Observability overhead row: the same flagship call with span
        // and metric recording switched on (the smoke gate bounds the
        // ratio of this row to the plain fast row).
        clgemm_trace::set_enabled(true);
        let traced = (0..3)
            .map(|_| {
                let mut c = c0.clone();
                time_once(|| call(&tg, &a, &b, &mut c, &mut ws, &GemmOptions::default()))
            })
            .fold(f64::INFINITY, f64::min);
        clgemm_trace::set_enabled(false);
        println!(
            "routine/flagship_nn_f32_1024_fast_traced: {} (overhead {:.1}%)",
            fmt_secs(traced),
            100.0 * (traced / fast - 1.0)
        );
        rows.push(("routine/flagship_nn_f32_1024_fast_traced".into(), traced));
    }

    // Record results and pairwise speedups at the repo root.
    let mut entries: Vec<Json> = Vec::new();
    for (name, secs) in &rows {
        entries.push(Json::obj(vec![
            ("name", Json::Str(name.clone())),
            ("seconds", Json::Num(*secs)),
        ]));
    }
    let mut speedups: Vec<Json> = Vec::new();
    for (name, secs) in &rows {
        if let Some(base) = name.strip_suffix("_fast") {
            let ref_name = format!("{base}_reference");
            if let Some((_, ref_secs)) = rows.iter().find(|(n, _)| *n == ref_name) {
                if *secs > 0.0 {
                    speedups.push(Json::obj(vec![
                        ("case", Json::Str(base.to_string())),
                        ("speedup", Json::Num(ref_secs / secs)),
                    ]));
                }
            }
        }
    }
    // Record the tile each precision runs next to the tuned blocking (the
    // smoke gate asserts this section exists and names concrete tiles).
    let level = SimdLevel::detect();
    let mut selected: Vec<Json> = Vec::new();
    for precision in [Precision::F32, Precision::F64] {
        let p = small_test_params(precision);
        let d = TileDecision::new(precision, (p.mwi(), p.nwi()));
        selected.push(Json::obj(vec![
            ("precision", Json::Str(precision.to_string())),
            ("simd", Json::Str(level.tag().to_string())),
            ("vector_bits", Json::Num(VECTOR_BITS as f64)),
            ("registers", Json::Num(VECTOR_REGISTERS as f64)),
            ("lanes", Json::Num(d.lanes as f64)),
            ("tuned", Json::Str(format!("{}x{}", d.tuned.0, d.tuned.1))),
            ("selected", Json::Str(d.tile.to_string())),
        ]));
    }
    // The shape sweep with GFlop/s, the derived shape marked.
    let flops = 2.0 * (m * n * k) as f64;
    let mut sweep: Vec<Json> = Vec::new();
    for (name, secs) in &rows {
        let Some(rest) = name.strip_prefix("routine/tile_") else {
            continue;
        };
        let (shape, tag) = rest
            .split_once('_')
            .expect("tile rows end in the precision");
        let precision = if tag == "f64" {
            Precision::F64
        } else {
            Precision::F32
        };
        sweep.push(Json::obj(vec![
            ("precision", Json::Str(precision.to_string())),
            ("tile", Json::Str(shape.to_string())),
            ("seconds", Json::Num(*secs)),
            ("gflops", Json::Num(flops / secs / 1e9)),
            (
                "selected",
                Json::Bool(microkernel_tile(precision).to_string() == shape),
            ),
        ]));
    }
    let doc = Json::obj(vec![
        ("bench", Json::Str("routine".into())),
        ("simd", Json::Str(level.tag().to_string())),
        ("results", Json::Arr(entries)),
        ("fast_vs_reference", Json::Arr(speedups)),
        ("selected_tile", Json::Arr(selected)),
        ("tile_sweep", Json::Arr(sweep)),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_routine.json");
    std::fs::write(path, doc.to_string_compact()).expect("write BENCH_routine.json");
    println!("wrote {path}");
}
