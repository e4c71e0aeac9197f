//! One-stop observability tour — and the CI dead-metric lint.
//!
//! Drives every instrumented layer (serving, tuned routine, tuner, VM)
//! against the process-global registry, then prints the same state
//! three ways: the human `StatsSnapshot` display, the Prometheus text
//! exposition and the JSON document `clgemm-report` consumes. Exits
//! non-zero if any registered metric was never exercised — a metric
//! nobody can move is a metric nobody should ship.
//!
//! ```text
//! cargo run --release -p clgemm-bench --example stats
//! ```

use clgemm::prelude::*;
use clgemm_blas::GemmType;
use clgemm_serve::{GemmPayload, GemmRequest, GemmServer, Priority, RejectReason, ServeConfig};
use clgemm_shim::Rng;
use clgemm_trace::Registry;

fn payload_f64(rng: &mut Rng, m: usize, n: usize, k: usize) -> GemmPayload {
    let order = StorageOrder::ColMajor;
    GemmPayload::F64 {
        alpha: 1.0,
        a: Matrix::test_pattern(m, k, order, rng.next_u64()),
        b: Matrix::test_pattern(k, n, order, rng.next_u64()),
        beta: 0.5,
        c: Matrix::test_pattern(m, n, order, rng.next_u64()),
    }
}

/// Valid parameters whose LDS footprint exceeds every built-in device's
/// local memory: committable to the tuning database, never launchable —
/// exactly what a stale entry looks like.
fn unlaunchable_params() -> KernelParams {
    use clgemm::params::{Algorithm, StrideMode};
    KernelParams {
        mwg: 128,
        nwg: 128,
        kwg: 64,
        mdimc: 16,
        ndimc: 16,
        kwi: 2,
        mdima: 16,
        ndimb: 16,
        vw: 2,
        stride_m: StrideMode::Unit,
        stride_n: StrideMode::Unit,
        local_a: true,
        local_b: true,
        layout_a: BlockLayout::Cbl,
        layout_b: BlockLayout::Cbl,
        algorithm: Algorithm::Ba,
        precision: Precision::F64,
    }
}

fn main() {
    clgemm_trace::set_enabled(true);
    let t0 = clgemm_trace::now_ns();

    // ---- persistent tuning database ------------------------------------
    // One db seeded with a stale (unlaunchable) entry per device for the
    // 64³ bucket — forcing the stale path — and a second db holding a
    // known-good winner, so the warm-restart hit path fires too.
    let tmp = std::env::temp_dir();
    let db_path = tmp.join(format!("clgemm-stats-db-{}.jsonl", std::process::id()));
    let hit_path = tmp.join(format!("clgemm-stats-hit-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&db_path);
    let _ = std::fs::remove_file(&hit_path);
    {
        use clgemm_serve::ShapeBucket;
        let mut db = TuningDb::open(&db_path).expect("fresh db");
        for dev in [DeviceId::Tahiti.spec(), DeviceId::Fermi.spec()] {
            let bucket = ShapeBucket::of(64, 64, 64);
            db.commit(
                DbKey {
                    fingerprint: dev.fingerprint(),
                    m: bucket.m,
                    n: bucket.n,
                    k: bucket.k,
                    gemm: "*".to_string(),
                    storage: Precision::F64.to_string(),
                },
                Measurement {
                    params: unlaunchable_params(),
                    n: 64,
                    gflops: 1.0,
                },
            )
            .expect("stale seed commits");
        }
        let mut good = TuningDb::open(&hit_path).expect("fresh db");
        let bucket = ShapeBucket::of(256, 256, 256);
        good.commit(
            DbKey {
                fingerprint: DeviceId::Tahiti.spec().fingerprint(),
                m: bucket.m,
                n: bucket.n,
                k: bucket.k,
                gemm: "*".to_string(),
                storage: Precision::F64.to_string(),
            },
            Measurement {
                params: clgemm::params::tahiti_dgemm_best(),
                n: 256,
                gflops: 800.0,
            },
        )
        .expect("good seed commits");
    }

    // ---- serving layer -------------------------------------------------
    // Default config → the process-global registry, so the serve
    // histograms land next to the routine/tuner/VM metrics below. The
    // predictor serves every cold bucket instantly; the background
    // refiner re-derives them with real searches off the serving path.
    let mut server = GemmServer::new(
        vec![DeviceId::Tahiti.spec(), DeviceId::Fermi.spec()],
        ServeConfig {
            max_batch: 4,
            predict: true,
            background_refine: true,
            tuning_db: Some(db_path.clone()),
            tenant_weights: vec![("inter".into(), 4), ("bulk".into(), 1)],
            ..Default::default()
        },
    );
    let mut rng = Rng::new(7);
    let shapes = [40usize, 96, 120];
    for i in 0..24 {
        let s = shapes[rng.range(0, shapes.len())];
        let tenant = if i % 3 == 0 { "inter" } else { "bulk" };
        let mut req =
            GemmRequest::new(GemmType::NN, payload_f64(&mut rng, s, s, s)).with_tenant(tenant);
        if i % 5 == 0 {
            req = req.with_priority(Priority::High);
        }
        // Generous deadlines complete and record positive slack.
        req = req.with_deadline(60.0);
        server.submit(req).expect("queue has room");
        if i % 8 == 7 {
            server.drain();
        }
    }
    // An unmeetable deadline is shed at admission — moving the shed
    // counter and the lateness histogram.
    let unmeetable =
        GemmRequest::new(GemmType::NN, payload_f64(&mut rng, 64, 64, 64)).with_deadline(0.0);
    assert!(
        matches!(
            server.submit(unmeetable),
            Err(RejectReason::DeadlineUnmeetable { .. })
        ),
        "a deadline of 0.0 must be shed at admission"
    );
    // Identical concurrent submissions coalesce onto one execution.
    let dup = GemmRequest::new(GemmType::NN, payload_f64(&mut rng, 64, 64, 64));
    server.submit(dup.clone()).expect("queue has room");
    server.submit(dup).expect("queue has room");
    server.drain();

    // ---- routine layer (hybrid path choice) ----------------------------
    let device = DeviceId::Tahiti.spec();
    let hybrid = HybridGemm::new(TunedGemm::new(
        device.clone(),
        clgemm::params::tahiti_dgemm_best(),
        clgemm::params::small_test_params(Precision::F32),
    ));
    for s in [24usize, 512] {
        let a = Matrix::<f64>::test_pattern(s, s, StorageOrder::ColMajor, 1);
        let b = Matrix::<f64>::test_pattern(s, s, StorageOrder::ColMajor, 2);
        let mut c = Matrix::<f64>::zeros(s, s, StorageOrder::ColMajor);
        hybrid.gemm(GemmType::NN, 1.0, &a, &b, 0.0, &mut c);
    }

    // ---- strided-batched path ------------------------------------------
    // One small direct-path batch and one past-crossover packed batch,
    // both with f16 storage: together they move the batch-size
    // histogram, both path counters, the convert-on-pack counter and
    // the serve-side drift gauge + entries histogram.
    {
        use clgemm_serve::{BatchedPayload, BatchedRequest};
        let mut run = |batch: usize, m: usize, n: usize, k: usize| {
            let desc = GemmBatch::packed(GemmType::NN, batch, m, n, k);
            let fill = |seed: usize, len: usize| -> Vec<F16> {
                (0..len)
                    .map(|i| F16::from_f64(((i * 7 + seed) % 16) as f64 * 0.25 - 2.125))
                    .collect()
            };
            let req = BatchedRequest::new(
                desc,
                BatchedPayload::F16 {
                    alpha: 1.0,
                    a: fill(1, batch * m * k),
                    b: fill(2, batch * k * n),
                    beta: 0.0,
                    c: fill(3, batch * m * n),
                },
            );
            server.run_batched(req).expect("batched call serves")
        };
        let direct = run(6, 32, 32, 32);
        assert_eq!(direct.run.path, BatchPath::Direct);
        let packed = run(2, DIRECT_BATCH_MAX + 8, 16, 16);
        assert_eq!(packed.run.path, BatchPath::Packed);
        assert!(packed.run.widened, "f16 storage must widen on pack");
    }

    // Block on the background refiner: every predicted cold start above
    // gets re-derived by a real (smoke-sized) search, upgrading the
    // cache entries to `Refined`, persisting them into the tuning db,
    // and moving the refine histogram + predicted-vs-tuned gauge.
    let refined = server.wait_refines();
    assert!(refined > 0, "cold starts must enqueue background refines");

    // ---- warm restart from the tuning database -------------------------
    // A second server over the pre-seeded "good" db: the very first
    // request for the 256³ bucket resolves from disk — no predictor, no
    // tuner — which is the whole point of persisting measurements.
    {
        let mut warm = GemmServer::new(
            vec![DeviceId::Tahiti.spec()],
            ServeConfig {
                predict: true,
                background_refine: false,
                tuning_db: Some(hit_path.clone()),
                ..Default::default()
            },
        );
        let mut rng = Rng::new(11);
        warm.submit(GemmRequest::new(
            GemmType::NN,
            payload_f64(&mut rng, 200, 200, 200),
        ))
        .expect("queue has room");
        warm.drain();
        let snap = warm.stats();
        assert_eq!(snap.db_hits, 1, "256³ bucket must warm from disk");
        assert_eq!(snap.predict_cold_starts, 0, "db hit preempts predictor");
    }

    // ---- tuner + VM layers ---------------------------------------------
    // A smoke-sized search with winner verification: the verify step
    // compiles the winning kernel and runs it on the clc engine, so one
    // call exercises the tuner counters AND the vm_* bridge.
    let space = SearchSpace::smoke(&device);
    let opts = SearchOpts {
        top_k: 10,
        max_sweep_points: 8,
        predictor_prune: true,
        ..Default::default()
    };
    let result = tune(&device, Precision::F64, &space, &opts);
    assert!(result.verified, "winner must verify in the VM");

    // ---- clc compiler pipeline -----------------------------------------
    // Compile and launch a small kernel on the default (compiled)
    // engine so the `clc.compile` span and the per-pass clc_compile_*
    // counters move and stay out of the dead-metric list. The guarded
    // variant's `i < n` diverges in the last work-group and must compile
    // too: it runs under per-work-item masks, not on a fallback.
    {
        use clgemm_clc::{Arg, BufData, ExecOptions, NdRange, Program};
        let plain = r"__kernel void saxpy(__global const float* x,
                                        __global float* y, float a, int n) {
            int i = get_global_id(0);
            y[i] = a * x[i] + y[i];
        }";
        let guarded = r"__kernel void saxpy(__global const float* x,
                                        __global float* y, float a, int n) {
            int i = get_global_id(0);
            if (i < n) { y[i] = a * x[i] + y[i]; }
        }";
        for src in [plain, guarded] {
            let prog = Program::compile(src).expect("saxpy compiles");
            let kernel = prog.kernel("saxpy").expect("kernel present");
            assert!(
                kernel.compiled().trace.is_some(),
                "saxpy must take the compiled engine, not a fallback: {:?}",
                kernel.compiled().trace_decline
            );
            let n = 256usize;
            let mut bufs = vec![
                BufData::F32((0..n).map(|i| i as f32 / 7.0).collect()),
                BufData::F32(vec![1.0; n]),
            ];
            let args = [Arg::Buf(0), Arg::Buf(1), Arg::F32(0.5), Arg::I32(250)];
            kernel
                .launch(
                    NdRange::d1(n, 64),
                    &args,
                    &mut bufs,
                    &ExecOptions::default(),
                )
                .expect("compiled-engine launch");
        }
    }

    // ---- one snapshot, three renderings --------------------------------
    println!("{}", server.stats());

    let snap = Registry::global().snapshot();
    println!("---- prometheus ----");
    println!("{}", snap.to_prometheus());
    println!("---- json ----");
    println!("{}", snap.to_json().to_string_pretty());

    let spans = clgemm_trace::ring::events_since(t0);
    let dropped = clgemm_trace::ring::dropped_events();
    println!("---- spans ----");
    println!("{} span events recorded ({dropped} dropped)", spans.len());
    for name in [
        "serve.batch.execute",
        "serve.batched.execute",
        "routine.gemm",
        "routine.gemm_batch",
        "tuner.run",
        "clc.launch",
        "clc.compile",
    ] {
        let n = spans.iter().filter(|e| e.name == name).count();
        println!("  {name:<22} {n}");
        assert!(n > 0, "expected at least one {name} span");
    }

    // ---- the lint -------------------------------------------------------
    // Key cross-layer metrics must exist and have moved…
    for metric in [
        "routine_gemm_total",
        "tuner_runs_total",
        "vm_instrs_total",
        "clc_compile_total",
        "clc_compile_ops_in_total",
        "clc_compile_ops_out_total",
        "routine_convert_on_pack_total",
        "routine_batch_path_total{path=\"direct\"}",
        "routine_batch_path_total{path=\"packed\"}",
        "predict_cold_start_total",
        "tuning_db_hit_total",
        "tuning_db_miss_total",
        "tuning_db_stale_total",
        "serve_coalesce_hits_total",
    ] {
        assert!(
            snap.counter(metric).is_some_and(|v| v > 0),
            "{metric} missing or zero"
        );
    }
    assert!(snap.hist("serve_queue_wait_seconds").expect("hist").count > 0);
    assert!(
        snap.hist("serve_deadline_slack_seconds")
            .expect("hist")
            .count
            > 0
    );
    assert!(
        snap.hist("serve_deadline_lateness_seconds")
            .expect("hist")
            .count
            > 0,
        "the shed request's lateness must be observed"
    );
    assert!(snap.hist("routine_batch_size").expect("hist").count > 0);
    assert!(snap.hist("serve_batched_entries").expect("hist").count > 0);
    assert!(
        snap.hist("tuner_background_refine_seconds")
            .expect("hist")
            .count
            > 0
    );
    // Labeled metrics whose exact label set is scheduler-dependent:
    // a prefix scan over the snapshot suffices.
    for prefix in [
        "predict_vs_tuned_gflops_ratio{",
        "tuner_pruned_total{",
        "serve_admitted_total{tenant=",
        "serve_shed_total{reason=",
    ] {
        assert!(
            snap.entries
                .iter()
                .any(|(name, _)| name.starts_with(prefix)),
            "no metric with prefix {prefix}"
        );
    }

    // …and nothing registered may have stayed at rest.
    let dead = Registry::global().dead_metrics();
    assert!(
        dead.is_empty(),
        "dead metrics (registered but never exercised): {dead:?}"
    );
    println!(
        "\ndead-metric lint: {} metrics, all live",
        snap.entries.len()
    );

    let _ = std::fs::remove_file(&db_path);
    let _ = std::fs::remove_file(&hit_path);
}
