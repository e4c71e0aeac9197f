//! Integration properties of the analytical predictor, the persistent
//! tuning database, and the predictor-backed serving path.
//!
//! The unit suites prove each layer in isolation; this file proves the
//! contracts *between* them: every prediction on every built-in
//! profile is launchable under the device's occupancy model, predicted
//! quality tracks a real search, a restarted server warms from disk,
//! and a damaged database degrades instead of taking the server down.

use std::path::{Path, PathBuf};

use clgemm::params::KernelParams;
use clgemm::predict::{
    predict, predict_best, predict_enabled, predict_enabled_in, FeasibleSet, MAX_CANDIDATES,
};
use clgemm::tuner::search::{measure_gflops, stage1_base, stage1_n};
use clgemm::tuner::{Measurement, SearchSpace};
use clgemm::tuning_db::{DbError, DbKey, TuningDb, DB_ENV, DB_MAGIC, DB_SCHEMA_VERSION};
use clgemm_blas::matrix::{Matrix, StorageOrder};
use clgemm_blas::scalar::Precision;
use clgemm_blas::GemmType;
use clgemm_device::occupancy::occupancy;
use clgemm_device::DeviceId;
use clgemm_serve::{GemmPayload, GemmRequest, GemmServer, ServeConfig};

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "clgemm-predict-int-{name}-{}.jsonl",
        std::process::id()
    ))
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

fn serve_cfg(path: &Path, refine: bool) -> ServeConfig {
    ServeConfig {
        predict: true,
        background_refine: refine,
        tuning_db: Some(path.to_path_buf()),
        ..Default::default()
    }
}

/// Every prediction on every built-in profile must clear the hard
/// resource gates: structural validity, the register budget the
/// feasible set derived, and a strictly positive occupancy under the
/// device's own residency model.
#[test]
fn predictions_clear_every_hard_constraint_on_every_profile() {
    for id in DeviceId::ALL {
        let dev = id.spec();
        for precision in [Precision::F32, Precision::F64] {
            let feasible = FeasibleSet::derive(&dev, precision);
            let preds = predict(&dev, precision);
            assert!(
                !preds.is_empty() && preds.len() <= MAX_CANDIDATES,
                "{id:?} {precision:?}: {} predictions",
                preds.len()
            );
            for pred in &preds {
                let p: &KernelParams = &pred.params;
                p.validate()
                    .unwrap_or_else(|e| panic!("{id:?} {precision:?}: {e:?}\n{}", p.describe()));
                assert!(
                    p.regs_per_wi() <= feasible.max_regs_per_wi(),
                    "{id:?} {precision:?}: {} regs over budget {}",
                    p.regs_per_wi(),
                    feasible.max_regs_per_wi()
                );
                let occ = occupancy(&dev, p.wg_size(), p.regs_per_wi(), p.lds_bytes())
                    .unwrap_or_else(|e| panic!("{id:?} {precision:?}: unlaunchable: {e:?}"));
                assert!(
                    occ.wavefronts_per_cu > 0,
                    "{id:?} {precision:?}: zero occupancy"
                );
            }
        }
    }
}

/// On CPUs the predicted per-work-item blocking must be one the host
/// could run as a register tile: within the register budget (at most 16
/// per edge, the largest tile the host kernel ever instantiated) and
/// with a column edge that fills whole SIMD vectors (`Nwi % lanes == 0`,
/// at the device's f32 lane count and half of it for f64). A prediction
/// outside that was never really "predicted".
#[test]
fn cpu_predictions_stay_lane_aligned_through_tile_selection() {
    const REGISTER_TILE_MAX: usize = 16;
    for id in DeviceId::ALL {
        let dev = id.spec();
        if !dev.is_cpu() {
            continue;
        }
        let f32_lanes = dev.micro.native_simd_lanes;
        for precision in [Precision::F32, Precision::F64] {
            let lanes = match precision {
                Precision::F32 => f32_lanes.max(1),
                Precision::F64 => (f32_lanes / 2).max(1),
            };
            for pred in predict(&dev, precision) {
                let (mwi, nwi) = (pred.params.mwi(), pred.params.nwi());
                assert!(
                    (1..=REGISTER_TILE_MAX).contains(&mwi)
                        && (1..=REGISTER_TILE_MAX).contains(&nwi)
                        && nwi % lanes == 0,
                    "{id:?} {precision:?}: predicted {mwi}x{nwi} tile is outside the \
                     register budget or not aligned to {lanes} lanes"
                );
            }
        }
    }
}

/// The zero-search prediction must land within 2× of what an actual
/// search over the smoke space finds, on every profile — scored by the
/// same analytic model the tuner's stage 1 uses, at the stage-1 size.
#[test]
fn predicted_best_reaches_half_of_the_searched_winner() {
    for id in DeviceId::ALL {
        let dev = id.spec();
        let base = stage1_base(&dev);
        for precision in [Precision::F32, Precision::F64] {
            let searched = SearchSpace::smoke(&dev)
                .enumerate(&dev, precision)
                .iter()
                .filter_map(|p| measure_gflops(p, &dev, stage1_n(p, base)))
                .fold(0.0f64, f64::max);
            assert!(searched > 0.0, "{id:?} {precision:?}: empty smoke space");
            let best = predict_best(&dev, precision).expect("non-empty prediction");
            let predicted = measure_gflops(&best.params, &dev, stage1_n(&best.params, base))
                .expect("predictions are launchable");
            assert!(
                predicted >= 0.5 * searched,
                "{id:?} {precision:?}: predicted {predicted:.1} < half of searched {searched:.1}"
            );
        }
    }
}

/// Cold start, background refine, restart: the first server predicts
/// (no synchronous search), the refiner persists its measurement, and
/// a second server over the same file serves the bucket from disk.
#[test]
fn serve_restart_warms_from_the_on_disk_database() {
    let path = tmp("restart");
    let _ = std::fs::remove_file(&path);
    {
        let mut server = GemmServer::new(vec![DeviceId::Tahiti.spec()], serve_cfg(&path, true));
        server.submit(dgemm_request(100)).expect("queue has room");
        server.drain();
        let snap = server.stats();
        assert_eq!(snap.predict_cold_starts, 1, "first sight must predict");
        assert_eq!(snap.db_misses, 1, "nothing on disk yet");
        assert_eq!(server.wait_refines(), 1, "cold start enqueues a refine");
        assert_eq!(server.tuning_db().len(), 1, "refine must persist");
    }
    // Plain round-trip, outside any server.
    let db = TuningDb::open(&path).expect("reopens clean");
    assert_eq!(db.len(), 1);
    assert_eq!(db.corrupt_entries(), 0);
    {
        let mut server = GemmServer::new(vec![DeviceId::Tahiti.spec()], serve_cfg(&path, false));
        server.submit(dgemm_request(100)).expect("queue has room");
        server.drain();
        let snap = server.stats();
        assert_eq!(snap.db_hits, 1, "restart must warm from disk");
        assert_eq!(snap.predict_cold_starts, 0, "db hit preempts the predictor");
    }
    std::fs::remove_file(&path).unwrap();
}

/// A database from the future is refused with a typed error — and a
/// server pointed at it degrades to an in-memory db rather than dying.
/// A crash-truncated tail loses only the chopped entry.
#[test]
fn damaged_databases_degrade_instead_of_failing() {
    // Newer schema: typed rejection…
    let path = tmp("version");
    std::fs::write(
        &path,
        format!("{{\"magic\":\"{DB_MAGIC}\",\"schema_version\":999}}\n"),
    )
    .unwrap();
    match TuningDb::open(&path) {
        Err(DbError::VersionMismatch { found, expected }) => {
            assert_eq!((found, expected), (999, DB_SCHEMA_VERSION));
        }
        other => panic!("expected VersionMismatch, got {other:?}"),
    }
    // …but the server keeps serving (predictor path, memory-only db).
    let mut server = GemmServer::new(vec![DeviceId::Tahiti.spec()], serve_cfg(&path, false));
    server.submit(dgemm_request(100)).expect("queue has room");
    server.drain();
    assert_eq!(server.stats().predict_cold_starts, 1);
    assert!(
        server.tuning_db().path().is_none(),
        "unreadable file must degrade to an in-memory db"
    );
    std::fs::remove_file(&path).unwrap();

    // Crash-truncated tail: the intact prefix survives a reopen.
    let path = tmp("truncated");
    let _ = std::fs::remove_file(&path);
    let key = |n: usize| DbKey {
        fingerprint: DeviceId::Tahiti.spec().fingerprint(),
        m: n,
        n,
        k: n,
        gemm: "*".to_string(),
        storage: Precision::F64.to_string(),
    };
    let meas = Measurement {
        params: clgemm::params::tahiti_dgemm_best(),
        n: 1024,
        gflops: 800.0,
    };
    {
        let mut db = TuningDb::open(&path).unwrap();
        db.commit(key(1024), meas.clone()).unwrap();
        db.commit(key(2048), meas).unwrap();
    }
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, &text[..text.len() - 10]).unwrap();
    let db = TuningDb::open(&path).expect("truncated file still opens");
    assert_eq!(db.len(), 1, "intact prefix entry survives");
    assert_eq!(db.corrupt_entries(), 1, "chopped tail is counted");
    assert!(db.get(&key(1024)).is_some());
    std::fs::remove_file(&path).unwrap();
}

/// Both env overrides, exercised in ONE test function so no parallel
/// test observes a half-mutated process environment.
#[test]
fn env_overrides_reach_the_predictor_and_the_database() {
    // Pure parsing first.
    assert!(predict_enabled_in(None));
    assert!(predict_enabled_in(Some("on")));
    assert!(!predict_enabled_in(Some("off")));
    assert!(!predict_enabled_in(Some("0")));

    std::env::set_var("CLGEMM_PREDICT", "off");
    assert!(!predict_enabled());
    assert!(
        !ServeConfig::default().predict,
        "serve default must honour CLGEMM_PREDICT=off"
    );
    std::env::remove_var("CLGEMM_PREDICT");
    assert!(predict_enabled());
    assert!(ServeConfig::default().predict);

    let path = tmp("env");
    let _ = std::fs::remove_file(&path);
    std::env::set_var(DB_ENV, &path);
    let db = TuningDb::from_env();
    assert_eq!(db.path(), Some(path.as_path()));
    assert_eq!(
        ServeConfig::default().tuning_db.as_deref(),
        Some(path.as_path()),
        "serve default must honour {DB_ENV}"
    );
    std::env::remove_var(DB_ENV);
    assert!(TuningDb::from_env().path().is_none());
    assert!(ServeConfig::default().tuning_db.is_none());
    let _ = std::fs::remove_file(&path);
}
