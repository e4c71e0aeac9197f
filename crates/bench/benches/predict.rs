//! Analytical-predictor bench: stage-1 pruning power and serve
//! cold-start latency.
//!
//! Full runs produce `BENCH_predict.json` at the repo root: per
//! `(device, precision)` the full stage-1 candidate count, the count
//! surviving the analytical feasible set, the prune ratio, the best
//! model GFlop/s on each side, the seconds spent enumerating the full
//! space and scoring every candidate serially, and the serve cold-start
//! latency with the predictor against the legacy synchronous tuning
//! path. Smoke mode (`CLGEMM_BENCH_SMOKE=1`, used by CI) is the
//! regression gate: the feasible set must shrink stage 1 by ≥ 10× on
//! EVERY built-in profile while keeping the searched winner within 2%,
//! enumerating the spaces must take no longer than scoring them, and a
//! predictor cold start must beat a synchronous tune-on-miss cold
//! start outright.

use clgemm::params::KernelParams;
use clgemm::predict::FeasibleSet;
use clgemm::tuner::search::{measure_gflops, stage1_base, stage1_n};
use clgemm::tuner::SearchSpace;
use clgemm_blas::matrix::{Matrix, StorageOrder};
use clgemm_blas::scalar::Precision;
use clgemm_blas::GemmType;
use clgemm_device::{DeviceId, DeviceSpec};
use clgemm_serve::{GemmPayload, GemmRequest, GemmServer, ServeConfig};
use clgemm_shim::bench::fmt_secs;
use clgemm_shim::json::Json;
use clgemm_trace::Registry;
use std::time::Instant;

struct PruneRow {
    device: DeviceId,
    precision: Precision,
    full: usize,
    kept: usize,
    ratio: f64,
    full_best: f64,
    kept_best: f64,
    enumerate_seconds: f64,
    score_seconds: f64,
}

/// Stage-1 pruning on one `(device, precision)`: full space vs the
/// analytical feasible subset, both scored by the tuner's own stage-1
/// model at the tuner's stage-1 size. Enumerating the full space and
/// scoring it serially are timed separately.
fn prune_row(device: DeviceId, precision: Precision) -> PruneRow {
    let dev: DeviceSpec = device.spec();
    let base = stage1_base(&dev);
    let space = SearchSpace::for_device(&dev);
    let t = Instant::now();
    let candidates = space.enumerate(&dev, precision);
    let enumerate_seconds = t.elapsed().as_secs_f64();
    let feasible = FeasibleSet::derive(&dev, precision);
    let kept: Vec<&KernelParams> = candidates.iter().filter(|p| feasible.admits(p)).collect();
    let score = |p: &KernelParams| measure_gflops(p, &dev, stage1_n(p, base)).unwrap_or(0.0);
    let t = Instant::now();
    let full_best = candidates.iter().map(score).fold(0.0f64, f64::max);
    let score_seconds = t.elapsed().as_secs_f64();
    let kept_best = kept.iter().map(|p| score(p)).fold(0.0f64, f64::max);
    PruneRow {
        device,
        precision,
        full: candidates.len(),
        kept: kept.len(),
        ratio: candidates.len() as f64 / kept.len().max(1) as f64,
        full_best,
        kept_best,
        enumerate_seconds,
        score_seconds,
    }
}

fn dgemm_request(s: usize) -> GemmRequest {
    let order = StorageOrder::ColMajor;
    GemmRequest::new(
        GemmType::NN,
        GemmPayload::F64 {
            alpha: 1.0,
            a: Matrix::test_pattern(s, s, order, 1),
            b: Matrix::test_pattern(s, s, order, 2),
            beta: 0.0,
            c: Matrix::zeros(s, s, order),
        },
    )
}

/// Time a fresh server's first drain — the cold-start path — under the
/// given miss-resolution policy. Isolated registry: the bench must not
/// pollute (or race on) the process-global one.
fn cold_start_once(predict: bool, tune_misses: bool) -> f64 {
    let mut server = GemmServer::new(
        vec![DeviceId::Tahiti.spec()],
        ServeConfig {
            predict,
            tune_misses,
            background_refine: false,
            tuning_db: None,
            registry: Some(Registry::new()),
            ..Default::default()
        },
    );
    server.submit(dgemm_request(100)).expect("queue has room");
    let t = Instant::now();
    server.drain();
    t.elapsed().as_secs_f64()
}

/// Best of nine fresh servers per side, `(predicted, synchronous)`. Each
/// rep is a genuine cold start and the minimum strips scheduler noise
/// from the ~ms-scale measurement; the two sides' reps alternate so
/// host drift during the measurement reaches both alike.
fn cold_start_secs() -> (f64, f64) {
    // Warm allocators & thread pool.
    cold_start_once(true, false);
    cold_start_once(false, true);
    (0..9)
        .map(|_| (cold_start_once(true, false), cold_start_once(false, true)))
        .fold((f64::INFINITY, f64::INFINITY), |(p, s), (rp, rs)| {
            (p.min(rp), s.min(rs))
        })
}

fn main() {
    let smoke = std::env::var_os("CLGEMM_BENCH_SMOKE").is_some_and(|v| v == "1");

    let mut rows: Vec<PruneRow> = Vec::new();
    for device in DeviceId::ALL {
        for precision in [Precision::F32, Precision::F64] {
            rows.push(prune_row(device, precision));
        }
    }
    for r in &rows {
        println!(
            "predict/prune {:?} {:?}: {} -> {} candidates ({:.1}x), best {:.1} -> {:.1} GFlop/s; enumerate {}, score {}",
            r.device,
            r.precision,
            r.full,
            r.kept,
            r.ratio,
            r.full_best,
            r.kept_best,
            fmt_secs(r.enumerate_seconds),
            fmt_secs(r.score_seconds)
        );
    }
    let enumerate_total: f64 = rows.iter().map(|r| r.enumerate_seconds).sum();
    let score_total: f64 = rows.iter().map(|r| r.score_seconds).sum();
    println!(
        "predict/enumerate: {} enumerating vs {} scoring serially ({:.2}x)",
        fmt_secs(enumerate_total),
        fmt_secs(score_total),
        enumerate_total / score_total
    );

    // Cold-start latency: predictor vs the legacy synchronous search.
    let (predicted, synced) = cold_start_secs();
    println!(
        "predict/cold-start: predicted {} vs synchronous tune {} ({:.1}x)",
        fmt_secs(predicted),
        fmt_secs(synced),
        synced / predicted
    );

    if smoke {
        // CI gate 1: ≥ 10x stage-1 shrink on every profile, winner
        // preserved within 2% — the whole point of the feasible set.
        for r in &rows {
            assert!(
                r.ratio >= 10.0,
                "{:?} {:?}: prune ratio {:.1}x below the 10x gate",
                r.device,
                r.precision,
                r.ratio
            );
            assert!(
                r.kept_best >= 0.98 * r.full_best,
                "{:?} {:?}: pruned winner {:.1} lost >2% vs {:.1}",
                r.device,
                r.precision,
                r.kept_best,
                r.full_best
            );
        }
        println!(
            "predict smoke gate: all {} profiles prune >= 10x",
            rows.len()
        );

        // CI gate 2: building the candidate list must cost no more than
        // one timing-model call per candidate; both run on this host,
        // so its speed cancels out of the ratio.
        assert!(
            enumerate_total <= score_total,
            "enumerating the spaces ({}) took longer than scoring them serially ({})",
            fmt_secs(enumerate_total),
            fmt_secs(score_total)
        );
        println!("predict smoke gate: enumeration is cheaper than serial scoring");

        // CI gate 3: a predicted cold start runs no synchronous search,
        // so it must beat the tune-on-miss cold start outright.
        assert!(
            predicted < synced,
            "predicted cold start ({}) must beat the synchronous tuner ({})",
            fmt_secs(predicted),
            fmt_secs(synced)
        );
        println!("predict smoke gate: cold start beats synchronous tuning");
        return;
    }

    let doc = Json::obj(vec![
        ("bench", Json::Str("predict".into())),
        (
            "prune",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj(vec![
                            ("device", Json::Str(format!("{:?}", r.device))),
                            ("precision", Json::Str(format!("{:?}", r.precision))),
                            ("stage1_full", Json::Num(r.full as f64)),
                            ("stage1_pruned", Json::Num(r.kept as f64)),
                            ("ratio", Json::Num(r.ratio)),
                            ("full_best_gflops", Json::Num(r.full_best)),
                            ("pruned_best_gflops", Json::Num(r.kept_best)),
                            ("enumerate_seconds", Json::Num(r.enumerate_seconds)),
                            ("score_seconds", Json::Num(r.score_seconds)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "cold_start",
            Json::obj(vec![
                ("predicted_seconds", Json::Num(predicted)),
                ("synchronous_tune_seconds", Json::Num(synced)),
                ("speedup", Json::Num(synced / predicted)),
            ]),
        ),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_predict.json");
    std::fs::write(path, doc.to_string_compact()).expect("write BENCH_predict.json");
    println!("wrote {path}");
}
