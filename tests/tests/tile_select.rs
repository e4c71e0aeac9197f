//! Property tests for the host microkernel's register tile.
//!
//! The tile the fast host path runs is a function of the precision and
//! of the build: the emitted vector width and register count. The tuned
//! blocking is recorded next to it, never executed. These tests pin that
//! contract from three sides: (1) every decision is structurally valid,
//! lane-aligned and within the register budget, and reports a
//! substitution exactly when the tile differs from the tuned blocking,
//! (2) whatever the tuned layouts, the fast engine stays bit-for-bit
//! identical to the reference executor across all nine layout pairs, and
//! (3) an oversize tuned blocking routed through the full routine is
//! *reported* as substituted — and still exact.

use clgemm::params::{small_test_params, KernelParams};
use clgemm::routine::{GemmOptions, TunedGemm};
use clgemm::tile::{lanes, microkernel_tile, TileDecision, VECTOR_REGISTERS};
use clgemm_blas::layout::BlockLayout;
use clgemm_blas::matrix::{Matrix, StorageOrder};
use clgemm_blas::scalar::Precision;
use clgemm_blas::workspace::Workspace;
use clgemm_blas::GemmType;
use clgemm_device::DeviceId;

/// A tuned-blocking grid covering aligned, misaligned and oversize
/// shapes (the paper's device blockings all land somewhere in here).
fn tuned_grid() -> Vec<(usize, usize)> {
    let edges = [1usize, 2, 3, 4, 6, 8, 12, 16, 24, 32];
    let mut grid = Vec::new();
    for &mwi in &edges {
        for &nwi in &edges {
            grid.push((mwi, nwi));
        }
    }
    grid
}

#[test]
fn every_decision_is_valid_and_lane_aligned() {
    for precision in [Precision::F32, Precision::F64] {
        let lanes = lanes(precision);
        let tile = microkernel_tile(precision);
        for tuned in tuned_grid() {
            let d = TileDecision::new(precision, tuned);
            assert_eq!(d.tuned, tuned);
            assert_eq!(d.lanes, lanes);
            assert_eq!(
                d.tile, tile,
                "{precision}: the tile ignores the tuned blocking"
            );
            assert!(d.tile.mr() >= 1, "{precision} {tuned:?}: empty tile");
            assert_eq!(d.tile.nr() % lanes, 0, "{precision} {tuned:?}: {}", d.tile);
            assert!(
                d.tile.registers(lanes) <= VECTOR_REGISTERS,
                "{precision} {tuned:?}: {} spills",
                d.tile
            );
            assert_eq!(d.substituted(), d.tile.dims() != tuned);
        }
    }
}

/// Valid test parameters with the given tuned layouts.
fn with_layouts(precision: Precision, la: BlockLayout, lb: BlockLayout) -> KernelParams {
    let mut p = small_test_params(precision);
    p.layout_a = la;
    p.layout_b = lb;
    p
}

#[test]
fn selected_tiles_stay_bit_identical_across_all_layout_pairs() {
    // Whatever the tuned layouts, the fast engine (panel packing, the
    // build's tile, in-place update) must match the reference engine
    // (tuned layouts, `run_native`, staged C) exactly — the tile is a
    // pure performance decision, never a numerical one. 24×16×11 pads
    // the depth and leaves ragged tiles in both directions.
    let (m, n, k) = (24usize, 16usize, 11usize);
    let a = Matrix::<f64>::from_fn(m, k, StorageOrder::ColMajor, |i, p| {
        ((p * 29 + i * 11 + 3 * 17) % 19) as f64 * 0.41 - 3.7
    });
    let b = Matrix::<f64>::from_fn(k, n, StorageOrder::RowMajor, |p, j| {
        ((p * 29 + j * 11 + 5 * 17) % 19) as f64 * 0.41 - 3.7
    });
    let c0 = Matrix::<f64>::from_fn(m, n, StorageOrder::ColMajor, |i, j| {
        ((i * n + j) % 13) as f64 - 6.0
    });
    for la in BlockLayout::ALL {
        for lb in BlockLayout::ALL {
            let tg = TunedGemm::new(
                DeviceId::Tahiti.spec(),
                with_layouts(Precision::F64, la, lb),
                with_layouts(Precision::F32, la, lb),
            );
            let mut c_ref = c0.clone();
            tg.gemm_with(
                GemmType::NN,
                1.5,
                &a,
                &b,
                -0.25,
                &mut c_ref,
                &mut Workspace::new(),
                &GemmOptions::reference(),
            );
            let mut c_fast = c0.clone();
            let run = tg.gemm_with(
                GemmType::NN,
                1.5,
                &a,
                &b,
                -0.25,
                &mut c_fast,
                &mut Workspace::new(),
                &GemmOptions::default(),
            );
            let d = run.tile.expect("fast run reports its tile");
            assert_eq!(d.tile, microkernel_tile(Precision::F64));
            assert_eq!(
                c_fast.as_slice(),
                c_ref.as_slice(),
                "{la}/{lb} tile {}",
                d.tile
            );
        }
    }
}

/// Valid params whose work-item blocking is 32×8 — a shape no register
/// file holds.
fn oversize_params(precision: Precision) -> KernelParams {
    let mut p = small_test_params(precision);
    p.mwg = 64;
    p.nwg = 64;
    p.mdimc = 2;
    p.ndimc = 8;
    p
}

#[test]
fn oversize_tuned_blocking_is_reported_not_silently_clamped() {
    let tg = TunedGemm::new(
        DeviceId::Tahiti.spec(),
        oversize_params(Precision::F64),
        oversize_params(Precision::F32),
    );
    assert_eq!(tg.params(Precision::F64).mwi(), 32, "premise: Mwi = 32");
    assert_eq!(tg.params(Precision::F64).nwi(), 8, "premise: Nwi = 8");

    let a = Matrix::<f64>::test_pattern(70, 20, StorageOrder::ColMajor, 1);
    let b = Matrix::<f64>::test_pattern(20, 66, StorageOrder::ColMajor, 2);
    let c0 = Matrix::<f64>::test_pattern(70, 66, StorageOrder::ColMajor, 3);

    let mut c_fast = c0.clone();
    let mut ws = Workspace::new();
    let run = tg.gemm_with(
        GemmType::NN,
        1.25,
        &a,
        &b,
        -0.5,
        &mut c_fast,
        &mut ws,
        &GemmOptions::default(),
    );

    // The substitution is visible in the run record...
    let d = run.tile.expect("fast run must report its tile decision");
    assert_eq!(d.tuned, (32, 8));
    assert!(d.substituted(), "a 32-row tile cannot run verbatim");
    assert!(d.tile.registers(d.lanes) <= VECTOR_REGISTERS);

    // ...and in the prediction output, identically.
    assert_eq!(
        tg.predict(true, GemmType::NN, 70, 66, 20).tile.unwrap(),
        d,
        "prediction and execution must report the same decision"
    );

    // ...and the substituted tile is still bit-exact vs the reference.
    let mut c_ref = c0.clone();
    let mut fresh = Workspace::new();
    tg.gemm_with(
        GemmType::NN,
        1.25,
        &a,
        &b,
        -0.5,
        &mut c_ref,
        &mut fresh,
        &GemmOptions::reference(),
    );
    assert_eq!(c_fast.as_slice(), c_ref.as_slice());
}
