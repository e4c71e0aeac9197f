//! Bit-exact grid for special values through the fast host path.
//!
//! NaN payloads, ±Inf, ±0 and subnormals go into `A`, `B`, `C`, `α` and
//! `β` — including `β = 0` over a `C` full of NaN — and the fast engine
//! must reproduce the reference engine bit for bit: single `f32`/`f64`
//! calls through `gemm_with` against `HostEngine::Reference`, with every
//! storage order of the three operands and a padded leading dimension,
//! and packed batch entries of all four storage types against a loop of
//! reference single calls on the widened entries. Two allowances, both
//! spelled out at [`same`]: the documented sign of an exact zero when
//! `α = 0`, and which of several NaNs that meet survives into a NaN
//! result.
//!
//! Operands are drawn from a seeded [`Rng`]; most elements are ordinary
//! values so that specials meet both ordinary values and each other.

use clgemm::batched::{BatchOptions, BatchPath};
use clgemm::params::small_test_params;
use clgemm::routine::{GemmOptions, TunedGemm};
use clgemm_blas::matrix::{Matrix, StorageOrder};
use clgemm_blas::scalar::{Precision, Scalar, StorageScalar};
use clgemm_blas::workspace::{Workspace, WorkspaceScalar};
use clgemm_blas::{BatchWorkspace, Bf16, GemmBatch, GemmType, Trans, F16};
use clgemm_device::DeviceId;
use clgemm_shim::Rng;

fn tuned() -> TunedGemm {
    // Kwg = 8: every depth below is padded, so the fast path's padding
    // step is exercised.
    TunedGemm::new(
        DeviceId::Tahiti.spec(),
        small_test_params(Precision::F64),
        small_test_params(Precision::F32),
    )
}

/// A storage type with its special values and its raw bits.
trait Special: StorageScalar {
    /// NaNs with distinct payloads and signs, ±Inf, ±0, subnormals, and
    /// values whose products underflow.
    fn specials() -> Vec<Self>;
    fn bits(self) -> u64;
}

impl Special for f64 {
    fn specials() -> Vec<f64> {
        [
            0x7FF8_0000_0000_0001,
            0xFFF8_0000_0000_BEEF,
            0x7FF0_0000_0000_0000,
            0xFFF0_0000_0000_0000,
            0x0000_0000_0000_0000,
            0x8000_0000_0000_0000,
            0x0000_0000_0000_0001,
            0x800F_FFFF_FFFF_FFFF,
        ]
        .into_iter()
        .map(f64::from_bits)
        .chain([1e-300, -1e-300, f64::MIN_POSITIVE, -f64::MAX])
        .collect()
    }
    fn bits(self) -> u64 {
        self.to_bits()
    }
}

impl Special for f32 {
    fn specials() -> Vec<f32> {
        [
            0x7FC0_0001,
            0xFFC0_BEEF,
            0x7F80_0000,
            0xFF80_0000,
            0x0000_0000,
            0x8000_0000,
            0x0000_0001,
            0x807F_FFFF,
        ]
        .into_iter()
        .map(f32::from_bits)
        .chain([1e-30, -1e-30, f32::MIN_POSITIVE, -f32::MAX])
        .collect()
    }
    fn bits(self) -> u64 {
        u64::from(self.to_bits())
    }
}

impl Special for F16 {
    fn specials() -> Vec<F16> {
        [
            0x7E01, 0xFE2A, 0x7C00, 0xFC00, 0x0000, 0x8000, 0x0001, 0x83FF, 0x0400, 0xFBFF,
        ]
        .into_iter()
        .map(F16)
        .collect()
    }
    fn bits(self) -> u64 {
        u64::from(self.0)
    }
}

impl Special for Bf16 {
    fn specials() -> Vec<Bf16> {
        [
            0x7FC1, 0xFFC2, 0x7F80, 0xFF80, 0x0000, 0x8000, 0x0001, 0x807F, 0x0080, 0xFF7F,
        ]
        .into_iter()
        .map(Bf16)
        .collect()
    }
    fn bits(self) -> u64 {
        u64::from(self.0)
    }
}

/// One element: a special one time in four, else an ordinary value.
fn draw<S: Special>(rng: &mut Rng) -> S {
    if rng.range(0, 4) == 0 {
        *rng.choose(&S::specials()).expect("specials")
    } else {
        S::from_f64(rng.range(1, 17) as f64 * 0.25 - 2.125)
    }
}

/// The scalars `α` and `β` range over.
fn scalars<T: Special>() -> Vec<T> {
    let mut out = vec![T::from_f64(1.25), T::from_f64(-0.5)];
    out.extend(T::specials());
    out
}

/// `fast` equals `reference` bit for bit, with two allowances. With
/// `α = 0` the fast engine skips the product, so an exact zero may come
/// back with the other sign (the documented one). And where the
/// reference's result is a NaN, the fast one must be a NaN carrying the
/// bits of a NaN that took part — one of the element's `inputs` (its row
/// of `op(A)`, column of `op(B)`, `C` element, `α`, `β`, widened) or the
/// default NaN an invalid operation makes, of either sign. IEEE 754
/// leaves which payload survives when NaNs meet unspecified, and x86
/// ties it to the operand order of the FMA form the compiler picked,
/// which differs between the vectorised microkernel and the scalar
/// reference loop.
fn same<S>(fast: S, reference: S, inputs: &[S::Acc], alpha_zero: bool) -> bool
where
    S: Special,
    S::Acc: Special,
{
    let value = |x: S| Scalar::to_f64(x.widen());
    if fast.bits() == reference.bits()
        || (alpha_zero && value(fast) == 0.0 && value(reference) == 0.0)
    {
        return true;
    }
    let default = <S::Acc as Scalar>::from_f64(f64::NAN);
    value(fast).is_nan()
        && value(reference).is_nan()
        && inputs
            .iter()
            .copied()
            .chain([default, -default])
            .filter(|x| Scalar::to_f64(*x).is_nan())
            .any(|x| S::narrow(x).bits() == fast.bits())
}

/// Element `(i, j)`'s inputs: row `i` of `op(A)`, column `j` of `op(B)`,
/// `C(i, j)`, `α` and `β`.
#[allow(clippy::too_many_arguments)]
fn inputs<A: Scalar>(
    ty: GemmType,
    a: &Matrix<A>,
    b: &Matrix<A>,
    c: &Matrix<A>,
    alpha: A,
    beta: A,
    i: usize,
    j: usize,
) -> Vec<A> {
    let k = if ty.ta == Trans::No {
        a.cols()
    } else {
        a.rows()
    };
    let mut out: Vec<A> = (0..k)
        .flat_map(|p| {
            let av = if ty.ta == Trans::No {
                a.at(i, p)
            } else {
                a.at(p, i)
            };
            let bv = if ty.tb == Trans::No {
                b.at(p, j)
            } else {
                b.at(j, p)
            };
            [av, bv]
        })
        .collect();
    out.extend([c.at(i, j), alpha, beta]);
    out
}

/// A `rows × cols` matrix in `order` with its leading dimension padded
/// by three, the gaps holding NaN.
fn operand<T: Special + Scalar>(
    rng: &mut Rng,
    rows: usize,
    cols: usize,
    order: StorageOrder,
) -> Matrix<T> {
    let minor = match order {
        StorageOrder::ColMajor => rows,
        StorageOrder::RowMajor => cols,
    };
    let mut m = Matrix::zeros_with_ld(rows, cols, minor + 3, order);
    m.as_mut_slice().fill(<T as Scalar>::from_f64(f64::NAN));
    for j in 0..cols {
        for i in 0..rows {
            *m.at_mut(i, j) = draw(rng);
        }
    }
    m
}

fn single_grid<T>(seed: u64)
where
    T: Special + Scalar + WorkspaceScalar + StorageScalar<Acc = T>,
{
    let tg = tuned();
    let mut rng = Rng::new(seed);
    let orders = [StorageOrder::ColMajor, StorageOrder::RowMajor];
    let (m, n, k) = (7, 9, 5);
    let mut ws = Workspace::new();
    let scalars = scalars::<T>();
    for ty in GemmType::ALL {
        for oa in orders {
            for ob in orders {
                for oc in orders {
                    let (ar, ac) = if ty.ta == Trans::No { (m, k) } else { (k, m) };
                    let (br, bc) = if ty.tb == Trans::No { (k, n) } else { (n, k) };
                    let a = operand::<T>(&mut rng, ar, ac, oa);
                    let b = operand::<T>(&mut rng, br, bc, ob);
                    let c0 = operand::<T>(&mut rng, m, n, oc);
                    let alpha = *rng.choose(&scalars).expect("scalars");
                    let beta = *rng.choose(&scalars).expect("scalars");
                    // The drawn pair; β = 0 over a C full of NaN; and
                    // products that all underflow to −0 over a −0 C, whose
                    // sign only the reference's zero-padded depth steps
                    // flip (k = 5 pads to 8).
                    let mut nan_c = c0.clone();
                    nan_c.as_mut_slice().fill(<T as Scalar>::from_f64(f64::NAN));
                    let fill = |m: &Matrix<T>, v: f64| {
                        let mut m = m.clone();
                        m.as_mut_slice().fill(<T as Scalar>::from_f64(v));
                        m
                    };
                    let tiny = if T::PRECISION == Precision::F64 {
                        1e-300
                    } else {
                        1e-30
                    };
                    let (ta, tb, neg_zero) = (fill(&a, tiny), fill(&b, -tiny), fill(&c0, -0.0));
                    let one = <T as Scalar>::from_f64(1.25);
                    for (a, b, alpha, beta, c0) in [
                        (&a, &b, alpha, beta, &c0),
                        (&a, &b, one, T::ZERO, &nan_c),
                        (&ta, &tb, one, <T as Scalar>::from_f64(0.5), &neg_zero),
                    ] {
                        let mut fast = c0.clone();
                        tg.gemm_with(
                            ty,
                            alpha,
                            a,
                            b,
                            beta,
                            &mut fast,
                            &mut ws,
                            &GemmOptions::default(),
                        );
                        let mut reference = c0.clone();
                        tg.gemm_with(
                            ty,
                            alpha,
                            a,
                            b,
                            beta,
                            &mut reference,
                            &mut Workspace::new(),
                            &GemmOptions::reference(),
                        );
                        for j in 0..n {
                            for i in 0..m {
                                let (x, y) = (fast.at(i, j), reference.at(i, j));
                                let inputs = inputs(ty, a, b, c0, alpha, beta, i, j);
                                assert!(
                                    same(x, y, &inputs, alpha == T::ZERO),
                                    "{} {ty} {oa:?}/{ob:?}/{oc:?} α={alpha} β={beta} ({i},{j}): \
                                     fast {:#x} vs reference {:#x}",
                                    T::NAME,
                                    x.bits(),
                                    y.bits()
                                );
                            }
                        }
                        // The ld gaps stay untouched.
                        let (ld, minor) =
                            (c0.ld(), if oc == StorageOrder::ColMajor { m } else { n });
                        for (idx, (x, y)) in fast.as_slice().iter().zip(c0.as_slice()).enumerate() {
                            assert!(
                                idx % ld < minor || x.bits() == y.bits(),
                                "gap {idx} overwritten"
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn single_calls_match_the_reference_bit_for_bit() {
    for seed in 0..4 {
        single_grid::<f64>(seed);
        single_grid::<f32>(100 + seed);
    }
}

/// Packed batch entries of storage `S` against a loop of reference
/// single calls on the widened entries, narrowed once at the end.
fn batch_grid<S>(seed: u64)
where
    S: Special,
    S::Acc: Special + WorkspaceScalar,
{
    let tg = tuned();
    let mut rng = Rng::new(seed);
    let force = BatchOptions {
        force_path: Some(BatchPath::Packed),
    };
    let scalars = scalars::<S::Acc>();
    for ty in GemmType::ALL {
        for _ in 0..3 {
            let (batch, m, n, k) = (3, 6, 7, 5);
            let mut desc = GemmBatch::packed(ty, batch, m, n, k);
            // Padded leading dimensions and strides.
            let ((ar, ac), (br, bc)) = (desc.a_dims(), desc.b_dims());
            desc.lda = ar + 2;
            desc.ldb = br + 1;
            desc.ldc = m + 3;
            desc.stride_a = desc.lda * ac + 1;
            desc.stride_b = desc.ldb * bc;
            desc.stride_c = desc.ldc * n + 2;
            let slab =
                |rng: &mut Rng, len: usize| -> Vec<S> { (0..len).map(|_| draw(rng)).collect() };
            let a = slab(&mut rng, desc.stride_a * (batch - 1) + desc.a_extent());
            let b = slab(&mut rng, desc.stride_b * (batch - 1) + desc.b_extent());
            let c0 = slab(&mut rng, desc.c_required());
            let alpha = *rng.choose(&scalars).expect("scalars");
            let beta = *rng.choose(&scalars).expect("scalars");

            let mut c = c0.clone();
            let run = tg
                .gemm_batch_with(
                    &desc,
                    alpha,
                    &a,
                    &b,
                    beta,
                    &mut c,
                    &mut BatchWorkspace::new(),
                    &force,
                )
                .expect("valid descriptor");
            assert!(alpha == <S::Acc as Scalar>::ZERO || run.path == BatchPath::Packed);

            let widen = |slab: &[S], off: usize, rows: usize, cols: usize, ld: usize| {
                Matrix::<S::Acc>::from_fn(rows, cols, StorageOrder::ColMajor, |i, j| {
                    slab[off + j * ld + i].widen()
                })
            };
            for e in 0..batch {
                let am = widen(&a, desc.a_offset(e), ar, ac, desc.lda);
                let bm = widen(&b, desc.b_offset(e), br, bc, desc.ldb);
                let mut cm = widen(&c0, desc.c_offset(e), m, n, desc.ldc);
                tg.gemm_with(
                    ty,
                    alpha,
                    &am,
                    &bm,
                    beta,
                    &mut cm,
                    &mut Workspace::new(),
                    &GemmOptions::reference(),
                );
                let c0m = widen(&c0, desc.c_offset(e), m, n, desc.ldc);
                for j in 0..n {
                    for i in 0..m {
                        let got = c[desc.c_offset(e) + j * desc.ldc + i];
                        let want = S::narrow(cm.at(i, j));
                        let inputs = inputs(ty, &am, &bm, &c0m, alpha, beta, i, j);
                        assert!(
                            same(got, want, &inputs, alpha == <S::Acc as Scalar>::ZERO),
                            "{} {ty} entry {e} ({i},{j}) α={alpha} β={beta}: batched {:#x} vs looped {:#x}",
                            S::NAME,
                            got.bits(),
                            want.bits()
                        );
                    }
                }
            }
            // Gaps between columns and entries stay untouched.
            for (idx, (x, y)) in c.iter().zip(&c0).enumerate() {
                let (e, r) = (idx / desc.stride_c, idx % desc.stride_c);
                let inside = e < batch && r % desc.ldc < m && r / desc.ldc < n;
                assert!(
                    inside || x.bits() == y.bits(),
                    "{} gap {idx} overwritten",
                    S::NAME
                );
            }
        }
    }
}

#[test]
fn packed_batch_entries_match_the_looped_reference_for_every_storage_type() {
    for seed in 0..3 {
        batch_grid::<f32>(seed);
        batch_grid::<f64>(10 + seed);
        batch_grid::<F16>(20 + seed);
        batch_grid::<Bf16>(30 + seed);
    }
}
