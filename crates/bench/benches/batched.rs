//! Strided-batched GEMM bench: one `gemm_batch` call vs a loop of
//! single `gemm` calls over the same entries, across batch sizes and
//! shapes, plus the direct-vs-packed crossover sweep that sets
//! [`DIRECT_BATCH_MAX`].
//!
//! Full runs produce `BENCH_batched.json` at the repo root: GFlop/s for
//! batched and looped variants at batch 1/8/64 × 32³/128³/512³ f32 (and
//! an f16 convert-on-pack row), and forced direct vs forced packed
//! timings across the crossover edge sweep. Smoke mode
//! (`CLGEMM_BENCH_SMOKE=1`, used by CI) is the regression gate: batched
//! must beat the looped single calls by ≥ 1.25× at batch 64 / 128³ f32,
//! the direct path must beat the packed path at 32³, and repeated
//! batched calls must perform zero steady-state workspace growths.

use clgemm::batched::{BatchOptions, BatchPath};
use clgemm::params::small_test_params;
use clgemm::routine::{GemmOptions, TunedGemm};
use clgemm_blas::matrix::{Matrix, StorageOrder};
use clgemm_blas::scalar::{Precision, Scalar, StorageScalar};
use clgemm_blas::workspace::{Workspace, WorkspaceScalar};
use clgemm_blas::{BatchWorkspace, GemmBatch, GemmType, F16};
use clgemm_shim::bench::fmt_secs;
use clgemm_shim::json::Json;
use std::time::Instant;

fn tuned() -> TunedGemm {
    TunedGemm::new(
        clgemm_device::DeviceId::Tahiti.spec(),
        small_test_params(Precision::F64),
        small_test_params(Precision::F32),
    )
}

fn fill<S: StorageScalar>(slab: &mut [S], seed: usize) {
    for (i, cell) in slab.iter_mut().enumerate() {
        *cell = S::from_f64(((i * 7 + seed * 13) % 16) as f64 * 0.25 - 2.125);
    }
}

fn time_once(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

fn best_of(reps: usize, mut f: impl FnMut()) -> f64 {
    (0..reps)
        .map(|_| time_once(&mut f))
        .fold(f64::INFINITY, f64::min)
}

/// Slabs + workspaces for one `batch × edge³` f-storage scenario.
struct Scenario<S: StorageScalar> {
    desc: GemmBatch,
    a: Vec<S>,
    b: Vec<S>,
    c: Vec<S>,
    ws: BatchWorkspace,
}

impl<S: StorageScalar> Scenario<S>
where
    S::Acc: WorkspaceScalar,
{
    fn new(batch: usize, edge: usize) -> Scenario<S> {
        let desc = GemmBatch::packed(GemmType::NN, batch, edge, edge, edge);
        let n = batch * edge * edge;
        let mut a = vec![S::default(); n];
        let mut b = vec![S::default(); n];
        let mut c = vec![S::default(); n];
        fill(&mut a, 1);
        fill(&mut b, 2);
        fill(&mut c, 3);
        Scenario {
            desc,
            a,
            b,
            c,
            ws: BatchWorkspace::new(),
        }
    }

    /// One batched call (`beta = 0`, so C can be reused across reps).
    fn batched(&mut self, tg: &TunedGemm, opts: &BatchOptions) {
        tg.gemm_batch_with(
            &self.desc,
            <S::Acc as Scalar>::from_f64(1.0),
            &self.a,
            &self.b,
            <S::Acc as Scalar>::from_f64(0.0),
            &mut self.c,
            &mut self.ws,
            opts,
        )
        .expect("bench descriptor is valid");
    }
}

/// The looped-single baseline: one routine `gemm` call per entry on
/// widened matrices, staging through a reusable workspace — exactly
/// what a caller without the batched entry point would write.
struct Looped<T: WorkspaceScalar> {
    entries: Vec<(Matrix<T>, Matrix<T>, Matrix<T>)>,
    ws: Workspace,
}

impl<T: WorkspaceScalar> Looped<T> {
    fn new(batch: usize, edge: usize) -> Looped<T> {
        let entries = (0..batch)
            .map(|i| {
                (
                    Matrix::test_pattern(edge, edge, StorageOrder::ColMajor, i as u64),
                    Matrix::test_pattern(edge, edge, StorageOrder::ColMajor, i as u64 + 1),
                    Matrix::zeros(edge, edge, StorageOrder::ColMajor),
                )
            })
            .collect();
        Looped {
            entries,
            ws: Workspace::new(),
        }
    }

    fn run(&mut self, tg: &TunedGemm) {
        let opts = GemmOptions::default();
        for (a, b, c) in &mut self.entries {
            tg.gemm_with(
                GemmType::NN,
                T::from_f64(1.0),
                a,
                b,
                T::from_f64(0.0),
                c,
                &mut self.ws,
                &opts,
            );
        }
    }
}

fn gflops(batch: usize, edge: usize, secs: f64) -> f64 {
    2.0 * batch as f64 * (edge * edge * edge) as f64 / secs / 1e9
}

fn main() {
    let smoke = std::env::var_os("CLGEMM_BENCH_SMOKE").is_some_and(|v| v == "1");
    let tg = tuned();
    let auto = BatchOptions::default();

    if smoke {
        // CI gate 1: one batched call beats the loop of single calls by
        // at least 1.25x at batch 64 / 128^3 f32 — the regime the batched
        // entry point exists for. Both sides run the panel microkernel
        // there, so the gain is the batch's one plan, serial per-entry
        // packs and entry-level parallelism; the bar was 2x while the
        // looped singles ran the slower tuned-layout kernel.
        let (batch, edge) = (64, 128);
        let mut sc = Scenario::<f32>::new(batch, edge);
        let mut lp = Looped::<f32>::new(batch, edge);
        sc.batched(&tg, &auto); // warm the direct path
        lp.run(&tg); // warm the looped workspace
        let batched = best_of(3, || sc.batched(&tg, &auto));
        let looped = best_of(3, || lp.run(&tg));
        println!(
            "batched smoke gate ({batch}x{edge}^3 f32): batched {} vs looped {} ({:.2}x)",
            fmt_secs(batched),
            fmt_secs(looped),
            looped / batched
        );
        assert!(
            batched * 1.25 <= looped,
            "batched call ({}) must be at least 1.25x the looped singles ({})",
            fmt_secs(batched),
            fmt_secs(looped)
        );

        // CI gate 2: below the crossover the direct path must win.
        let mut sc = Scenario::<f32>::new(64, 32);
        let direct_opts = BatchOptions {
            force_path: Some(BatchPath::Direct),
        };
        let packed_opts = BatchOptions {
            force_path: Some(BatchPath::Packed),
        };
        sc.batched(&tg, &packed_opts); // warm the packed workspace
        let direct = best_of(3, || sc.batched(&tg, &direct_opts));
        let packed = best_of(3, || sc.batched(&tg, &packed_opts));
        println!(
            "batched smoke gate (64x32^3 f32 crossover): direct {} vs packed {} ({:.2}x)",
            fmt_secs(direct),
            fmt_secs(packed),
            packed / direct
        );
        assert!(
            direct <= packed,
            "direct path ({}) must beat the packed path ({}) at 32^3",
            fmt_secs(direct),
            fmt_secs(packed)
        );

        // CI gate 3: steady-state batched calls allocate nothing. The
        // packed scenario above is already warm; repeats must not grow.
        let grows = sc.ws.grows();
        assert!(grows > 0, "packed warm-up must size the pools");
        for _ in 0..3 {
            sc.batched(&tg, &packed_opts);
        }
        assert_eq!(
            sc.ws.grows(),
            grows,
            "steady-state batched calls grew the workspace"
        );
        // The direct path never touches the workspace at all.
        let mut direct_ws = Scenario::<f32>::new(8, 32);
        direct_ws.batched(&tg, &auto);
        assert_eq!(direct_ws.ws.grows(), 0, "direct path must not stage");
        println!("batched smoke gate: steady-state workspace growths = 0");

        // CI gate 4: the checked-in record carries both tables.
        let json_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_batched.json");
        let doc =
            Json::parse(&std::fs::read_to_string(json_path).expect("read BENCH_batched.json"))
                .expect("parse BENCH_batched.json");
        let grid = doc
            .get("batched_vs_looped")
            .and_then(Json::as_arr)
            .expect("batched_vs_looped table");
        assert!(grid.len() >= 9, "batch x shape grid must be recorded");
        let crossover = doc
            .get("crossover")
            .and_then(Json::as_arr)
            .expect("crossover table");
        assert!(crossover.len() >= 6, "crossover sweep must be recorded");
        println!(
            "batched smoke gate: {} grid rows, {} crossover rows in BENCH_batched.json",
            grid.len(),
            crossover.len()
        );
        return;
    }

    // ---- full run: batched vs looped grid --------------------------------
    let mut grid: Vec<Json> = Vec::new();
    for &batch in &[1usize, 8, 64] {
        for &edge in &[32usize, 128, 512] {
            // Keep the heaviest cells affordable on one core.
            let reps = if batch * edge * edge * edge > 1 << 27 {
                2
            } else {
                5
            };
            let mut sc = Scenario::<f32>::new(batch, edge);
            let mut lp = Looped::<f32>::new(batch, edge);
            sc.batched(&tg, &auto);
            lp.run(&tg);
            let batched = best_of(reps, || sc.batched(&tg, &auto));
            let looped = best_of(reps, || lp.run(&tg));
            let path = if edge <= clgemm::batched::DIRECT_BATCH_MAX {
                "direct"
            } else {
                "packed"
            };
            println!(
                "batched/{batch}x{edge}_f32: batched {} ({:.2} GFlop/s, {path}) vs looped {} ({:.2} GFlop/s) -> {:.2}x",
                fmt_secs(batched),
                gflops(batch, edge, batched),
                fmt_secs(looped),
                gflops(batch, edge, looped),
                looped / batched
            );
            grid.push(Json::obj(vec![
                ("batch", Json::Num(batch as f64)),
                ("edge", Json::Num(edge as f64)),
                ("storage", Json::Str("f32".into())),
                ("path", Json::Str(path.into())),
                ("batched_seconds", Json::Num(batched)),
                ("looped_seconds", Json::Num(looped)),
                ("batched_gflops", Json::Num(gflops(batch, edge, batched))),
                ("looped_gflops", Json::Num(gflops(batch, edge, looped))),
                ("speedup", Json::Num(looped / batched)),
            ]));
        }
    }
    // Convert-on-pack row: f16 storage at batch 8 / 128^3, both paths.
    {
        let (batch, edge) = (8usize, 128usize);
        let mut sc = Scenario::<F16>::new(batch, edge);
        sc.batched(&tg, &auto);
        let direct = best_of(3, || sc.batched(&tg, &auto));
        let packed_opts = BatchOptions {
            force_path: Some(BatchPath::Packed),
        };
        sc.batched(&tg, &packed_opts);
        let packed = best_of(3, || sc.batched(&tg, &packed_opts));
        println!(
            "batched/{batch}x{edge}_f16: direct {} vs packed(widen) {}",
            fmt_secs(direct),
            fmt_secs(packed)
        );
        grid.push(Json::obj(vec![
            ("batch", Json::Num(batch as f64)),
            ("edge", Json::Num(edge as f64)),
            ("storage", Json::Str("f16".into())),
            ("path", Json::Str("direct".into())),
            ("batched_seconds", Json::Num(direct)),
            ("packed_seconds", Json::Num(packed)),
            ("batched_gflops", Json::Num(gflops(batch, edge, direct))),
        ]));
    }

    // ---- crossover sweep: forced direct vs forced packed ------------------
    let direct_opts = BatchOptions {
        force_path: Some(BatchPath::Direct),
    };
    let packed_opts = BatchOptions {
        force_path: Some(BatchPath::Packed),
    };
    let mut crossover: Vec<Json> = Vec::new();
    for &edge in &[16usize, 32, 48, 64, 96, 128, 160, 192, 256, 384, 512] {
        let batch = 16usize;
        let reps = if edge >= 384 { 2 } else { 3 };
        let mut sc = Scenario::<f32>::new(batch, edge);
        sc.batched(&tg, &packed_opts); // size the pools outside timing
        let direct = best_of(reps, || sc.batched(&tg, &direct_opts));
        let packed = best_of(reps, || sc.batched(&tg, &packed_opts));
        println!(
            "batched/crossover_{edge}: direct {} vs packed {} ({})",
            fmt_secs(direct),
            fmt_secs(packed),
            if direct <= packed {
                "direct wins"
            } else {
                "packed wins"
            }
        );
        crossover.push(Json::obj(vec![
            ("edge", Json::Num(edge as f64)),
            ("batch", Json::Num(batch as f64)),
            ("direct_seconds", Json::Num(direct)),
            ("packed_seconds", Json::Num(packed)),
            ("direct_gflops", Json::Num(gflops(batch, edge, direct))),
            ("packed_gflops", Json::Num(gflops(batch, edge, packed))),
        ]));
    }

    let doc = Json::obj(vec![
        ("bench", Json::Str("batched".into())),
        (
            "direct_batch_max",
            Json::Num(clgemm::batched::DIRECT_BATCH_MAX as f64),
        ),
        ("batched_vs_looped", Json::Arr(grid)),
        ("crossover", Json::Arr(crossover)),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_batched.json");
    std::fs::write(path, doc.to_string_compact()).expect("write BENCH_batched.json");
    println!("wrote {path}");
}
