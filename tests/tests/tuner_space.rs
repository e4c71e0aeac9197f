//! The tuner's search space against a reference enumerator.
//!
//! `SearchSpace::enumerate` checks each validity rule at the first loop
//! that fixes the knobs the rule reads and skips repeated axis values.
//! The reference below is the plain definition it must match: build
//! every point of the cross product, then keep the points that pass
//! `KernelParams::validate`, the tile cap and the device capacities, and
//! that were not seen before. Both must give the same `Vec`, in the same
//! order, because stage 1 breaks ties and keys its noise by index.

use std::collections::{HashMap, HashSet};

use clgemm::params::{small_test_params, Algorithm, KernelParams, StrideMode};
use clgemm::tuner::search::{measure_gflops, stage1_base, stage1_n};
use clgemm::tuner::{tune, Measurement, SearchOpts, SearchSpace};
use clgemm_blas::layout::BlockLayout;
use clgemm_blas::scalar::Precision;
use clgemm_device::{DeviceId, DeviceSpec};
use clgemm_shim::Rng;

const PRECISIONS: [Precision; 2] = [Precision::F32, Precision::F64];

/// Cross product, then filter. The loop-level divisibility guards of the
/// enumerator this mirrors are left out: `validate` rejects the same
/// points, and the guards divide by zero on axes that hold a zero.
fn reference_enumerate(
    space: &SearchSpace,
    dev: &DeviceSpec,
    precision: Precision,
) -> Vec<KernelParams> {
    let mut out = Vec::new();
    let mut seen = HashSet::new();
    for &(mdimc, ndimc) in &space.wg_shapes {
        let wg = mdimc * ndimc;
        for &(mwi, nwi) in &space.wi_tiles {
            let (mwg, nwg) = (mdimc * mwi, ndimc * nwi);
            if mwg > space.max_wg_tile || nwg > space.max_wg_tile {
                continue;
            }
            for &kwg in &space.kwg {
                for &kwi in &space.kwi {
                    for &vw in &space.vw {
                        for &(stride_m, stride_n) in &space.strides {
                            for &(layout_a, layout_b) in &space.layouts {
                                for &algorithm in &space.algorithms {
                                    for &(local_a, local_b) in &space.locals {
                                        for mdima in loader_dims(wg, mwg, kwg, mdimc, local_a) {
                                            for ndimb in loader_dims(wg, nwg, kwg, ndimc, local_b) {
                                                let p = KernelParams {
                                                    mwg,
                                                    nwg,
                                                    kwg,
                                                    mdimc,
                                                    ndimc,
                                                    kwi,
                                                    mdima,
                                                    ndimb,
                                                    vw,
                                                    stride_m,
                                                    stride_n,
                                                    local_a,
                                                    local_b,
                                                    layout_a,
                                                    layout_b,
                                                    algorithm,
                                                    precision,
                                                };
                                                if p.validate().is_ok()
                                                    && resource_sane(&p, dev)
                                                    && seen.insert(p)
                                                {
                                                    out.push(p);
                                                }
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

/// Loader shapes: the work-group's own extent plus a 2× alternate when
/// the divisibility works out, else the first divisor of the work-group
/// size that tiles the block; one canonical value when not staged.
fn loader_dims(wg: usize, wwg: usize, kwg: usize, dimc: usize, uses_local: bool) -> Vec<usize> {
    if !uses_local {
        return vec![dimc];
    }
    let fits =
        |d: usize| wg.is_multiple_of(d) && wwg.is_multiple_of(d) && kwg.is_multiple_of(wg / d);
    let mut dims: Vec<usize> = [dimc, dimc * 2]
        .into_iter()
        .filter(|&d| d > 0 && fits(d))
        .collect();
    dims.dedup();
    if dims.is_empty() {
        dims.extend(
            [4usize, 8, 16, 32, 64]
                .into_iter()
                .find(|&d| d <= wg && fits(d)),
        );
    }
    dims
}

/// Local memory fits the device and the register estimate leaves at
/// least one resident work-group.
fn resource_sane(p: &KernelParams, dev: &DeviceSpec) -> bool {
    let regs = reference_regs_per_wi(p);
    assert_eq!(regs, p.regs_per_wi(), "{}", p.describe());
    p.wg_size() <= dev.micro.max_wg_size
        && p.lds_bytes() <= dev.local_mem_bytes()
        && regs * p.wg_size() <= dev.micro.regs_per_cu
}

/// The register estimate with the PL prefetch term counted per loader
/// (`MwiA·KwiA + KwiB·NwiB`), which `regs_per_wi` must equal on every
/// valid set.
fn reference_regs_per_wi(p: &KernelParams) -> usize {
    let acc = p.mwi() * p.nwi();
    let staging = p.kwi.min(4) * (p.mwi() + p.nwi());
    let prefetch = if p.algorithm == Algorithm::Pl {
        usize::from(p.local_a) * p.mwia() * p.kwia() + usize::from(p.local_b) * p.kwib() * p.nwib()
    } else {
        0
    };
    (acc + staging + prefetch) * (p.elem_bytes() / 4) + 24
}

fn assert_matches_reference(space: &SearchSpace, dev: &DeviceSpec, precision: Precision) {
    let got = space.enumerate(dev, precision);
    let want = reference_enumerate(space, dev, precision);
    assert_eq!(got.len(), want.len(), "{} {precision:?}", dev.code_name);
    if let Some(i) = (0..got.len()).find(|&i| got[i] != want[i]) {
        panic!(
            "{} {precision:?}: first difference at {i}:\n  got  {}\n  want {}",
            dev.code_name,
            got[i].describe(),
            want[i].describe()
        );
    }
}

#[test]
fn default_and_smoke_spaces_match_the_reference() {
    for id in DeviceId::ALL {
        let dev = id.spec();
        for precision in PRECISIONS {
            assert_matches_reference(&SearchSpace::for_device(&dev), &dev, precision);
            assert_matches_reference(&SearchSpace::smoke(&dev), &dev, precision);
        }
    }
}

#[test]
fn restricted_spaces_match_the_reference() {
    let row_major = vec![(BlockLayout::RowMajor, BlockLayout::RowMajor)];
    for id in DeviceId::ALL {
        let dev = id.spec();
        for precision in PRECISIONS {
            let spaces = [
                SearchSpace::for_device(&dev).with_algorithm(Algorithm::Pl),
                SearchSpace::for_device(&dev).with_algorithm(Algorithm::Db),
                SearchSpace::smoke(&dev).with_locals(vec![(false, false)]),
                SearchSpace::smoke(&dev).with_locals(vec![(true, true), (false, true)]),
                SearchSpace::smoke(&dev).with_layouts(row_major.clone()),
            ];
            for space in &spaces {
                assert_matches_reference(space, &dev, precision);
            }
        }
    }
}

/// Thin work-groups whose loader siblings `{dimc, 2·dimc}` fail for
/// some `Kwg`, so the first admitted fallback divisor is used, and more
/// than one divisor is admitted.
#[test]
fn fallback_loader_shapes_match_the_reference() {
    let dev = DeviceId::Kepler.spec();
    let mut space = SearchSpace::for_device(&dev);
    space.wg_shapes = vec![(1, 64), (64, 1), (2, 32), (32, 2)];
    for precision in PRECISIONS {
        assert_matches_reference(&space, &dev, precision);
        let cands = space.enumerate(&dev, precision);
        let fallback = |dim: usize, dimc: usize| dim != dimc && dim != 2 * dimc;
        assert!(cands
            .iter()
            .any(|p| p.local_a && fallback(p.mdima, p.mdimc)));
        assert!(cands
            .iter()
            .any(|p| p.local_b && fallback(p.ndimb, p.ndimc)));
    }
}

/// One value from `good` and up to `extra` from `pool`, shuffled, and
/// sometimes with a value repeated.
fn axis<T: Copy>(rng: &mut Rng, good: &[T], pool: &[T], extra: usize) -> Vec<T> {
    let mut v = vec![*rng.choose(good).expect("non-empty pool")];
    for _ in 0..rng.range(0, extra + 1) {
        v.push(*rng.choose(pool).expect("non-empty pool"));
    }
    rng.shuffle(&mut v);
    if rng.range(0, 3) == 0 {
        let dup = *rng.choose(&v).expect("non-empty axis");
        v.insert(rng.range(0, v.len() + 1), dup);
    }
    v
}

fn pairs<T: Copy>(values: &[T]) -> Vec<(T, T)> {
    values
        .iter()
        .flat_map(|&a| values.iter().map(move |&b| (a, b)))
        .collect()
}

/// Random spaces with repeated values, zeros, `vw = 3`, work-groups
/// above 1024 and tile caps below every tile.
#[test]
fn random_spaces_match_the_reference() {
    use BlockLayout::{Cbl, Rbl, RowMajor};
    let shapes = pairs(&[0usize, 1, 2, 3, 4, 8, 16, 24, 32, 64]);
    let tiles = pairs(&[0usize, 1, 2, 3, 4, 6, 8]);
    let strides = pairs(&[StrideMode::Unit, StrideMode::NonUnit]);
    let flags = pairs(&[false, true]);
    let layouts = pairs(&[Cbl, Rbl, RowMajor]);
    let mut rng = Rng::new(0x5eed_5ace);
    let mut nonempty = 0;
    for _ in 0..240 {
        let dev = rng.choose(&DeviceId::ALL).expect("profiles").spec();
        let precision = *rng.choose(&PRECISIONS).expect("precisions");
        let space = SearchSpace {
            wg_shapes: axis(&mut rng, &[(8, 8), (16, 8), (8, 16), (16, 16)], &shapes, 3),
            wi_tiles: axis(&mut rng, &[(2, 2), (4, 4), (6, 2), (8, 8)], &tiles, 3),
            kwg: axis(&mut rng, &[16, 32], &[0, 8, 16, 24, 32, 48, 64], 2),
            kwi: axis(&mut rng, &[1, 2], &[0, 1, 2, 3, 4, 8], 2),
            vw: axis(&mut rng, &[1, 2], &[0, 1, 2, 3, 4, 8, 16], 2),
            strides: axis(&mut rng, &strides, &strides, 1),
            locals: axis(&mut rng, &flags, &flags, 2),
            layouts: axis(&mut rng, &layouts, &layouts, 1),
            algorithms: axis(&mut rng, &[Algorithm::Ba], &Algorithm::ALL, 2),
            max_wg_tile: *rng.choose(&[0, 64, 160, 160, 1024]).expect("caps"),
        };
        assert_matches_reference(&space, &dev, precision);
        nonempty += usize::from(!space.enumerate(&dev, precision).is_empty());
    }
    assert!(
        nonempty >= 150,
        "only {nonempty} random spaces were non-empty"
    );
}

/// One violating set per rule, each with the exact message `validate`
/// reports. Codegen, the direct kernel and the routine constructors pass
/// these strings on to callers.
#[test]
fn validate_reports_each_rule_with_its_message() {
    let base = small_test_params(Precision::F32);
    base.validate().expect("the fixture is valid");
    let with = |edit: &dyn Fn(&mut KernelParams)| {
        let mut p = base;
        edit(&mut p);
        p
    };
    let cases: Vec<(KernelParams, &str)> = vec![
        (with(&|p| p.mwg = 0), "Mwg must be positive"),
        (with(&|p| p.nwg = 0), "Nwg must be positive"),
        (with(&|p| p.kwg = 0), "Kwg must be positive"),
        (with(&|p| p.mdimc = 0), "MdimC must be positive"),
        (with(&|p| p.ndimc = 0), "NdimC must be positive"),
        (with(&|p| p.kwi = 0), "Kwi must be positive"),
        (with(&|p| p.mdima = 0), "MdimA must be positive"),
        (with(&|p| p.ndimb = 0), "NdimB must be positive"),
        (with(&|p| p.vw = 0), "vw must be positive"),
        (with(&|p| p.vw = 3), "vector width 3 not in {1,2,4,8}"),
        (with(&|p| p.mwg = 18), "Mwg 18 not divisible by MdimC 4"),
        (with(&|p| p.nwg = 18), "Nwg 18 not divisible by NdimC 4"),
        (with(&|p| p.kwi = 3), "Kwg 8 not divisible by Kwi 3"),
        (with(&|p| p.vw = 8), "Nwi 4 not divisible by vector width 8"),
        (
            with(&|p| (p.mdimc, p.ndimc, p.mwg, p.nwg) = (64, 32, 64, 64)),
            "work-group size 2048 exceeds 1024",
        ),
        (
            with(&|p| p.mdima = 3),
            "work-group size 16 not divisible by MdimA 3",
        ),
        (
            with(&|p| (p.mwg, p.mdima) = (12, 8)),
            "Mwg 12 not divisible by MdimA 8",
        ),
        (with(&|p| p.mdima = 1), "Kwg 8 not divisible by KdimA 16"),
        (
            with(&|p| p.ndimb = 3),
            "work-group size 16 not divisible by NdimB 3",
        ),
        (
            with(&|p| (p.nwg, p.vw, p.ndimb) = (12, 1, 8)),
            "Nwg 12 not divisible by NdimB 8",
        ),
        (with(&|p| p.ndimb = 1), "Kwg 8 not divisible by KdimB 16"),
        (
            with(&|p| (p.algorithm, p.local_a) = (Algorithm::Pl, false)),
            "algorithm PL requires local memory for both matrices",
        ),
        (
            with(&|p| (p.algorithm, p.local_b) = (Algorithm::Db, false)),
            "algorithm DB requires local memory for both matrices",
        ),
    ];
    for (p, want) in cases {
        let err = p.validate().expect_err(want);
        assert_eq!(err.0, want, "{p:?}");
    }
    for algorithm in [Algorithm::Pl, Algorithm::Db] {
        with(&|p| p.algorithm = algorithm)
            .validate()
            .expect("PL and DB run with both operands staged");
    }
    // Loader rules apply only to staged operands.
    with(&|p| (p.local_a, p.local_b, p.mdima, p.ndimb) = (false, false, 3, 3))
        .validate()
        .expect("unstaged loaders are unconstrained");
}

/// Stage-1 results, stably sorted by GFlop/s: exact ties keep index
/// order.
fn stage1_ranking(candidates: &[KernelParams], dev: &DeviceSpec) -> Vec<(usize, f64)> {
    let base = stage1_base(dev);
    let mut ranked: Vec<(usize, f64)> = candidates
        .iter()
        .enumerate()
        .filter_map(|(i, p)| Some((i, measure_gflops(p, dev, stage1_n(p, base))?)))
        .collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    ranked
}

#[test]
fn stage2_keeps_the_stable_top_k_on_every_smoke_space() {
    let opts = |top_k| SearchOpts {
        top_k,
        max_sweep_points: 4,
        verify_winner: false,
        ..Default::default()
    };
    let mut tied_spaces = 0;
    for id in DeviceId::ALL {
        let dev = id.spec();
        for precision in PRECISIONS {
            let space = SearchSpace::smoke(&dev);
            let candidates = space.enumerate(&dev, precision);
            // Each candidate's stage-2 sweep, which does not depend on
            // `top_k`.
            let all = tune(&dev, precision, &space, &opts(candidates.len() + 1));
            let swept: HashMap<KernelParams, &Measurement> =
                all.top.iter().map(|m| (m.params, m)).collect();
            let ranked = stage1_ranking(&candidates, &dev);
            tied_spaces += usize::from(ranked.windows(2).any(|w| w[0].1 == w[1].1));
            for top_k in [1, 10, 50, candidates.len() + 1] {
                // Stage 3 sorts the survivors stably by their best swept
                // GFlop/s.
                let mut want: Vec<&Measurement> = ranked[..top_k.min(ranked.len())]
                    .iter()
                    .filter_map(|(i, _)| swept.get(&candidates[*i]).copied())
                    .collect();
                want.sort_by(|a, b| b.gflops.partial_cmp(&a.gflops).unwrap());
                let want: Vec<KernelParams> = want.iter().map(|m| m.params).collect();
                let res = tune(&dev, precision, &space, &opts(top_k));
                let got: Vec<KernelParams> = res.top.iter().map(|m| m.params).collect();
                assert_eq!(got, want, "{id:?} {precision:?} top_k={top_k}");
            }
        }
    }
    assert!(tied_spaces > 0, "no smoke space has an exact stage-1 tie");
}
