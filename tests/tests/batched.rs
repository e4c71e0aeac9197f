//! Seeded property suite for the strided-batched GEMM host path.
//!
//! The contract under test: for every descriptor the batched entry
//! point accepts — any transpose pair, batch sizes 1 through 64, shared
//! or per-entry operands, padded leading dimensions and strides, all
//! four storage types, and both execution paths — the result is **bit
//! identical** to a loop of single-GEMM routine calls over the widened
//! entries. The direct kernel, the packed pipeline's convert-on-pack
//! widening, and the padding introduced by blocking all preserve the
//! canonical ascending-depth FMA chain per C element, so exact equality
//! (not a tolerance) is the assertion throughout.
//!
//! Cases are drawn from a seeded [`clgemm_shim::Rng`], so failures
//! reproduce deterministically.

use clgemm::batched::{BatchOptions, BatchPath, BatchRun, DIRECT_BATCH_MAX};
use clgemm::params::small_test_params;
use clgemm::routine::TunedGemm;
use clgemm_blas::matrix::{Matrix, StorageOrder};
use clgemm_blas::scalar::{Precision, Scalar, StorageScalar};
use clgemm_blas::{BatchWorkspace, Bf16, GemmBatch, GemmType, WorkspaceScalar, F16};
use clgemm_device::DeviceId;
use clgemm_shim::Rng;

fn tuned() -> TunedGemm {
    TunedGemm::new(
        DeviceId::Tahiti.spec(),
        small_test_params(Precision::F64),
        small_test_params(Precision::F32),
    )
}

/// Nonzero values on a 0.25 grid offset by 0.125: exactly representable
/// in every storage type's accumulator and never a signed zero, so the
/// padding lanes' trailing `fma(0, 0, acc)` terms are exact no-ops.
fn fill<S: StorageScalar>(rng: &mut Rng, slab: &mut [S]) {
    for cell in slab.iter_mut() {
        *cell = S::from_f64(rng.range(1, 17) as f64 * 0.25 - 2.125);
    }
}

fn slab_len(batch: usize, stride: usize, extent: usize) -> usize {
    if batch == 0 || extent == 0 {
        0
    } else {
        stride * (batch - 1) + extent
    }
}

/// One drawn scenario: the descriptor plus scaling factors and an
/// optional forced path.
struct Case {
    desc: GemmBatch,
    force: Option<BatchPath>,
    alpha: f64,
    beta: f64,
}

fn draw_case(rng: &mut Rng) -> Case {
    let ty = *rng.choose(&GemmType::ALL).unwrap();
    let batch = *rng.choose(&[1usize, 2, 3, 5, 8, 16, 64]).unwrap();
    let m = rng.range(1, 21);
    let n = rng.range(1, 21);
    let k = rng.range(1, 21);
    let mut desc = GemmBatch::packed(ty, batch, m, n, k);
    // Padded C rows and inter-entry gaps, sometimes.
    if rng.bool() {
        desc.ldc += rng.range(1, 4);
        desc.stride_c = desc.c_extent() + rng.range(0, 3);
    }
    match rng.range(0, 4) {
        0 => desc = desc.with_shared_a(),
        1 => desc = desc.with_shared_b(),
        _ => {}
    }
    let force = match rng.range(0, 3) {
        0 => Some(BatchPath::Packed),
        1 => Some(BatchPath::Direct),
        _ => None,
    };
    Case {
        desc,
        force,
        alpha: *rng.choose(&[1.0, 1.25, -0.75]).unwrap(),
        beta: *rng.choose(&[0.0, 0.5, -0.25, 1.0]).unwrap(),
    }
}

/// Run the batched call and compare every entry, bitwise, against a
/// loop of single-GEMM routine calls on the widened operands.
fn check<S>(tg: &TunedGemm, case: &Case, rng: &mut Rng, ws: &mut BatchWorkspace) -> BatchRun
where
    S: StorageScalar,
    S::Acc: WorkspaceScalar,
{
    let desc = &case.desc;
    let (ar, ac) = desc.a_dims();
    let (br, bc) = desc.b_dims();
    let mut a = vec![
        S::default();
        slab_len(
            desc.batch,
            desc.stride_a.max(desc.a_extent()),
            desc.a_extent()
        )
    ];
    let mut b = vec![
        S::default();
        slab_len(
            desc.batch,
            desc.stride_b.max(desc.b_extent()),
            desc.b_extent()
        )
    ];
    let mut c = vec![S::default(); desc.c_required()];
    fill(rng, &mut a);
    fill(rng, &mut b);
    fill(rng, &mut c);
    let c0 = c.clone();
    let alpha = <S::Acc as Scalar>::from_f64(case.alpha);
    let beta = <S::Acc as Scalar>::from_f64(case.beta);

    let opts = BatchOptions {
        force_path: case.force,
    };
    let run = tg
        .gemm_batch_with(desc, alpha, &a, &b, beta, &mut c, ws, &opts)
        .unwrap_or_else(|e| panic!("{desc}: {e}"));
    if let Some(path) = case.force {
        assert_eq!(run.path, path);
    }

    for i in 0..desc.batch {
        let widen = |slab: &[S], off: usize, rows: usize, cols: usize, ld: usize| {
            Matrix::from_fn(rows, cols, StorageOrder::ColMajor, |r, j| {
                slab[off + j * ld + r].widen()
            })
        };
        let am = widen(&a, desc.a_offset(i), ar, ac, desc.lda);
        let bm = widen(&b, desc.b_offset(i), br, bc, desc.ldb);
        let mut cm = widen(&c0, desc.c_offset(i), desc.m, desc.n, desc.ldc);
        tg.gemm(desc.ty, alpha, &am, &bm, beta, &mut cm);
        for j in 0..desc.n {
            for r in 0..desc.m {
                let got = c[desc.c_offset(i) + j * desc.ldc + r];
                let want = S::narrow(cm.at(r, j));
                assert_eq!(
                    got, want,
                    "{desc} ({}) entry {i} element ({r},{j}) diverges from the \
                     looped single-GEMM reference",
                    run.path
                );
            }
        }
        // Padding rows between columns stay untouched. The last
        // column's tail is excluded: with a tight extent it is where
        // the next entry begins.
        for j in 0..desc.n.saturating_sub(1) {
            for r in desc.m..desc.ldc {
                let idx = desc.c_offset(i) + j * desc.ldc + r;
                assert_eq!(c[idx], c0[idx], "{desc}: ld gap was written");
            }
        }
        // So is the slack between one entry's extent and the next.
        if i + 1 < desc.batch {
            for idx in desc.c_offset(i) + desc.c_extent()..desc.c_offset(i + 1) {
                assert_eq!(c[idx], c0[idx], "{desc}: stride gap was written");
            }
        }
    }
    run
}

#[test]
fn batched_gemm_is_bit_exact_for_f32_storage() {
    let tg = tuned();
    let mut rng = Rng::new(0xBA7C_4ED0);
    let mut ws = BatchWorkspace::new();
    for _ in 0..40 {
        let case = draw_case(&mut rng);
        check::<f32>(&tg, &case, &mut rng, &mut ws);
    }
}

#[test]
fn batched_gemm_is_bit_exact_for_f64_storage() {
    let tg = tuned();
    let mut rng = Rng::new(0xBA7C_4ED1);
    let mut ws = BatchWorkspace::new();
    for _ in 0..40 {
        let case = draw_case(&mut rng);
        check::<f64>(&tg, &case, &mut rng, &mut ws);
    }
}

#[test]
fn batched_gemm_is_bit_exact_for_f16_storage() {
    let tg = tuned();
    let mut rng = Rng::new(0xBA7C_4ED2);
    let mut ws = BatchWorkspace::new();
    for _ in 0..40 {
        let case = draw_case(&mut rng);
        let run = check::<F16>(&tg, &case, &mut rng, &mut ws);
        assert!(run.widened, "f16 storage must report convert-on-pack");
    }
}

#[test]
fn batched_gemm_is_bit_exact_for_bf16_storage() {
    let tg = tuned();
    let mut rng = Rng::new(0xBA7C_4ED3);
    let mut ws = BatchWorkspace::new();
    for _ in 0..40 {
        let case = draw_case(&mut rng);
        let run = check::<Bf16>(&tg, &case, &mut rng, &mut ws);
        assert!(run.widened);
    }
}

#[test]
fn past_crossover_shapes_route_to_the_packed_path_and_stay_exact() {
    let tg = tuned();
    let mut rng = Rng::new(0xC805_50E4);
    let mut ws = BatchWorkspace::new();
    for ty in GemmType::ALL {
        let case = Case {
            desc: GemmBatch::packed(ty, 3, DIRECT_BATCH_MAX + 22, 9, 7),
            force: None,
            alpha: 1.25,
            beta: -0.5,
        };
        let run = check::<f32>(&tg, &case, &mut rng, &mut ws);
        assert_eq!(run.path, BatchPath::Packed, "one edge past the crossover");
        assert!(run.tile.is_some() && run.pack.is_some());
    }
}

#[test]
fn batch_workspace_survives_shrink_then_grow() {
    let tg = tuned();
    let mut rng = Rng::new(0x5EED_5EED);
    let mut ws = BatchWorkspace::new();
    let opts = BatchOptions {
        force_path: Some(BatchPath::Packed),
    };
    let mut run_shape = |batch: usize, edge: usize, ws: &mut BatchWorkspace| {
        let desc = GemmBatch::packed(GemmType::NN, batch, edge, edge, edge);
        let mut a = vec![0f64; batch * edge * edge];
        let mut b = vec![0f64; batch * edge * edge];
        let mut c = vec![0f64; batch * edge * edge];
        fill(&mut rng, &mut a);
        fill(&mut rng, &mut b);
        fill(&mut rng, &mut c);
        tg.gemm_batch_with(&desc, 1.0, &a, &b, 0.5, &mut c, ws, &opts)
            .unwrap();
    };
    run_shape(4, 48, &mut ws);
    let grows_after_big = ws.grows();
    assert!(grows_after_big > 0, "first call must size the pools");
    // Shrink: a smaller shape fits in the retained buffers.
    run_shape(2, 16, &mut ws);
    assert_eq!(ws.grows(), grows_after_big, "shrinking must reuse");
    // Grow back to the original shape: still no new allocation.
    run_shape(4, 48, &mut ws);
    assert_eq!(
        ws.grows(),
        grows_after_big,
        "regrowth within the high-water mark"
    );
    // A genuinely larger shape is allowed to grow again.
    run_shape(4, 80, &mut ws);
    assert!(ws.grows() > grows_after_big);
}

#[test]
fn degenerate_descriptors_follow_blas_semantics() {
    let tg = tuned();
    let mut ws = BatchWorkspace::new();
    for desc in [
        GemmBatch::packed(GemmType::NN, 0, 8, 8, 8),
        GemmBatch::packed(GemmType::TN, 4, 0, 8, 8),
        GemmBatch::packed(GemmType::NT, 4, 8, 0, 8),
    ] {
        let run = tg
            .gemm_batch::<f32>(&desc, 1.0, &[], &[], 0.5, &mut [], &mut ws)
            .unwrap();
        assert_eq!(run.total, 0.0, "{desc} does nothing");
        assert_eq!(ws.grows(), 0);
    }
    // k == 0: C is scaled by beta, through the same narrow(merge) chain
    // a real kernel would apply.
    let desc = GemmBatch::packed(GemmType::TT, 2, 3, 2, 0);
    let mut c: Vec<f64> = (0..12).map(|i| i as f64 - 5.5).collect();
    let c0 = c.clone();
    tg.gemm_batch::<f64>(&desc, 1.0, &[], &[], -2.0, &mut c, &mut ws)
        .unwrap();
    for (got, want) in c.iter().zip(c0.iter().map(|v| -2.0 * v)) {
        assert_eq!(*got, want);
    }
    // Mismatched slab lengths are an error, not UB.
    let bad = GemmBatch::packed(GemmType::NN, 2, 8, 8, 8);
    assert!(tg
        .gemm_batch::<f32>(
            &bad,
            1.0,
            &[0.0; 64],
            &[0.0; 128],
            0.0,
            &mut [0.0; 128],
            &mut ws
        )
        .is_err());
}
