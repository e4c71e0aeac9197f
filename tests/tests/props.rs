//! Randomised property tests on the core invariants:
//!
//! * any structurally valid parameter set yields a kernel that compiles
//!   and executes bit-identically to the native oracle;
//! * packing is invertible for arbitrary shapes and layouts;
//! * the timing model stays finite, positive, and monotone in work.
//!
//! Cases are generated from a seeded [`clgemm_shim::Rng`], so every run
//! exercises the same inputs and failures reproduce deterministically.

use clgemm::params::Algorithm;
use clgemm::profile::launch_profile;
use clgemm::tuner::search::verify_kernel;
use clgemm_blas::layout::{round_up, BlockLayout};
use clgemm_blas::matrix::{Matrix, StorageOrder};
use clgemm_blas::pack::{pack_operand, unpack_operand, PackSpec};
use clgemm_blas::scalar::Precision;
use clgemm_blas::Trans;
use clgemm_device::{estimate, DeviceId};
use clgemm_integration::valid_params;
use clgemm_shim::Rng;

/// The flagship property: every valid parameter set survives the
/// paper's pipeline — generation, compilation, VM execution — and
/// matches the native oracle bit for bit.
#[test]
fn any_valid_params_verify_end_to_end() {
    let mut rng = Rng::new(0xC0FFEE);
    for case in 0..24 {
        let p = valid_params(&mut rng);
        verify_kernel(&p).unwrap_or_else(|e| panic!("case {case}: {e}"));
    }
}

/// pack ∘ unpack = id for any shape, layout, blocking and transpose.
#[test]
fn pack_unpack_roundtrip() {
    let mut rng = Rng::new(42);
    for _ in 0..64 {
        let k = rng.range(1, 40);
        let w = rng.range(1, 40);
        let wwg = rng.range(1, 12);
        let kwg = rng.range(1, 12);
        let layout = BlockLayout::ALL[rng.range(0, 3)];
        let transpose = rng.bool();

        let (rows, cols) = if transpose { (w, k) } else { (k, w) };
        let x = Matrix::<f64>::test_pattern(rows, cols, StorageOrder::ColMajor, 5);
        let spec = PackSpec {
            trans: if transpose { Trans::Yes } else { Trans::No },
            layout,
            wwg,
            kwg,
        };
        let (buf, dims) = pack_operand(&x, spec, k, w);
        assert_eq!(dims.k, round_up(k, kwg));
        assert_eq!(dims.width, round_up(w, wwg));
        let back = unpack_operand(&buf, layout, dims, k, w, StorageOrder::ColMajor);
        for p in 0..k {
            for c in 0..w {
                assert_eq!(back.at(p, c), x.at_op(spec.trans, p, c));
            }
        }
    }
}

/// The timing model is finite, positive, and at least linear in K.
#[test]
fn timing_model_sane_and_monotone() {
    let mut rng = Rng::new(7);
    let dev = DeviceId::Tahiti.spec();
    for _ in 0..64 {
        let p = valid_params(&mut rng);
        let m = p.mwg * 2;
        let n = p.nwg * 2;
        let k1 = p.k_multiple() * 2;
        let k2 = k1 * 4;
        let prof1 = launch_profile(&p, &dev, m, n, k1);
        let prof2 = launch_profile(&p, &dev, m, n, k2);
        if let (Ok(e1), Ok(e2)) = (estimate(&dev, &prof1), estimate(&dev, &prof2)) {
            assert!(e1.seconds.is_finite() && e1.seconds > 0.0);
            assert!(e2.seconds > e1.seconds, "4x the K work must take longer");
            // Efficiency can never exceed the boosted peak.
            let flops1 = 2.0 * (m * n * k1) as f64;
            let boosted_peak =
                dev.peak_gflops(p.precision == Precision::F64) * dev.micro.boost_factor;
            assert!(e1.gflops(flops1) <= boosted_peak * 1.0001);
        }
    }
}

/// Register and local-memory estimates never go negative or absurd,
/// and DB always doubles local memory vs BA.
#[test]
fn resource_estimates_consistent() {
    let mut rng = Rng::new(11);
    for _ in 0..64 {
        let p = valid_params(&mut rng);
        assert!(p.regs_per_wi() >= 24);
        assert!(p.lds_bytes() <= 2 * (p.kwg * (p.mwg + p.nwg)) * p.elem_bytes());
        if p.algorithm == Algorithm::Db {
            let mut ba = p;
            ba.algorithm = Algorithm::Ba;
            assert_eq!(p.lds_bytes(), 2 * ba.lds_bytes());
        }
    }
}

/// The search never returns an invalid or unlaunchable kernel, on any
/// device, with or without measurement noise.
#[test]
fn search_winner_always_valid() {
    use clgemm::tuner::{tune, SearchOpts, SearchSpace};
    let mut rng = Rng::new(99);
    let dev = DeviceId::Cayman.spec();
    let space = SearchSpace::smoke(&dev);
    for _ in 0..16 {
        let seed = rng.next_u64() % 1000;
        let noisy = rng.bool();
        let opts = SearchOpts {
            top_k: 4,
            max_sweep_points: 3,
            verify_winner: false,
            noise: if noisy { 0.05 } else { 0.0 },
            noise_seed: seed,
            ..Default::default()
        };
        let res = tune(&dev, Precision::F32, &space, &opts);
        assert!(res.best.params.validate().is_ok());
        assert!(res.best.params.lds_bytes() <= dev.local_mem_bytes());
        assert!(res.best.gflops > 0.0);
    }
}
