//! Native execution of generated-kernel semantics.
//!
//! All three generated algorithms accumulate each `C` element over `p` in
//! strictly ascending order with fused multiply-adds, then merge with
//! `mad(alpha, acc, beta*C)`. This module reproduces exactly that
//! arithmetic natively, twice:
//!
//! * [`run_native`] reads the operands in the tuned CBL/RBL layouts
//!   through per-element offsets. It is the oracle that must agree
//!   **bit-for-bit** with the `clgemm-clc` VM executing the generated
//!   OpenCL C — a very strong end-to-end check on the code generator, the
//!   compiler and the VM at once — and the reference engine's kernel.
//! * [`run_microkernel`] is the fast host path: a register-blocked
//!   microkernel over panel-packed operands that updates the caller's `C`
//!   in place, bit-identical to the oracle.

use crate::tile::{microkernel_tile, Tile};
use clgemm_blas::layout::{BlockLayout, PackedDims};
use clgemm_blas::pack::ViewMut;
use clgemm_blas::scalar::{Precision, Scalar, StorageScalar};

/// Compute `C ← α·Aᵀ·B + β·C` on packed operands with generated-kernel
/// numerics.
///
/// * `a`: packed `K × M` operand in `layout_a` with dims `a_dims`.
/// * `b`: packed `K × N` operand in `layout_b` with dims `b_dims`.
/// * `c`: row-major `M × N` buffer (stride `n`).
///
/// # Panics
/// Panics if buffer sizes disagree with the dims.
#[allow(clippy::too_many_arguments)] // deliberately BLAS-flat signature
pub fn run_native<T: Scalar>(
    m: usize,
    n: usize,
    k: usize,
    alpha: T,
    a: &[T],
    a_dims: PackedDims,
    layout_a: BlockLayout,
    b: &[T],
    b_dims: PackedDims,
    layout_b: BlockLayout,
    beta: T,
    c: &mut [T],
) {
    assert_eq!(a.len(), a_dims.len(), "packed A size mismatch");
    assert_eq!(b.len(), b_dims.len(), "packed B size mismatch");
    assert_eq!(c.len(), m * n, "C size mismatch");
    assert!(a_dims.k >= k && b_dims.k >= k, "operand depth too small");
    assert!(
        a_dims.width >= m && b_dims.width >= n,
        "operand width too small"
    );

    clgemm_shim::par::par_chunks_mut(c, n, |i, row| {
        for (j, cell) in row.iter_mut().enumerate() {
            let mut acc = T::ZERO;
            for p in 0..k {
                let av = a[layout_a.offset(p, i, a_dims)];
                let bv = b[layout_b.offset(p, j, b_dims)];
                acc = av.mul_add(bv, acc);
            }
            // Generated merge: mad(alpha, acc, beta * old).
            *cell = alpha.mul_add(acc, beta * *cell);
        }
    });
}

/// The panel widths `(op(A), op(B))` [`run_microkernel`] reads at
/// `precision` for a `C` whose columns (`col_major`) or rows are
/// contiguous. Tiles run along `C`'s contiguous lines, so a column-major
/// `C` is computed as the row-major `Cᵀ = op(B)ᵀ·op(A)ᵀ`, with the two
/// operands' panel widths swapped.
#[must_use]
pub const fn panel_widths(precision: Precision, col_major: bool) -> (usize, usize) {
    let t = microkernel_tile(precision);
    if col_major {
        (t.nr(), t.mr())
    } else {
        (t.mr(), t.nr())
    }
}

/// `C ← α·op(A)·op(B) + β·C` from panel-packed operands, written
/// straight into the caller's `C` with the build's register tile for the
/// accumulation precision ([`crate::tile::microkernel_tile`]). `a` and
/// `b` hold `op(A)` and `op(B)` packed by `clgemm_blas::pack::
/// pack_panels` at the [`panel_widths`] for `C`'s storage order; see
/// [`run_panels`] for `pad_depth`.
///
/// # Panics
/// Panics if a packed operand does not match `C`'s shape and `k`.
pub fn run_microkernel<S: StorageScalar>(
    k: usize,
    alpha: S::Acc,
    a: &[S::Acc],
    b: &[S::Acc],
    beta: S::Acc,
    c: ViewMut<'_, S>,
    pad_depth: bool,
) {
    const F32: Tile = microkernel_tile(Precision::F32);
    const F64: Tile = microkernel_tile(Precision::F64);
    let (rows, cols, c) = if c.is_col_major() {
        (b, a, c.transposed())
    } else {
        (a, b, c)
    };
    match <S::Acc as Scalar>::PRECISION {
        Precision::F32 => {
            run_panels::<S, { F32.mr() }, { F32.nr() }>(k, alpha, rows, cols, beta, c, pad_depth);
        }
        Precision::F64 => {
            run_panels::<S, { F64.mr() }, { F64.nr() }>(k, alpha, rows, cols, beta, c, pad_depth);
        }
    }
}

/// The panel microkernel with an explicit `MR × NR` register tile on a
/// row-major `C` — the same arithmetic as [`run_native`], **bit for
/// bit**.
///
/// * `rows`: the `m × k` left factor of `C`, packed by
///   `clgemm_blas::pack::pack_panels` into `MR`-wide depth-major panels,
///   `k · round_up(m, MR)` long.
/// * `cols`: the `k × n` right factor, packed the same way into `NR`-wide
///   panels.
/// * `c`: the `m × n` row-major `C`; each element becomes
///   `narrow(α·acc + β·widen(old))`. For a column-major `C` pass its
///   transpose, `op(B)ᵀ` as `rows` and `op(A)ᵀ` as `cols`: the products
///   are the same exact values, so the results are too.
/// * `pad_depth`: the reference engine runs the kernel over the depth
///   padded to the tuned `Kwg` multiple, whose zero steps turn a `-0`
///   accumulator into `+0`; `true` replays that with one extra
///   `fma(0, 0, acc)`, which is idempotent.
///
/// Each tile keeps its `MR × NR` accumulators in registers over the full
/// depth on the ascending-`p` FMA chain and is merged into `C` once, so
/// every element sees the reference's exact operation order; tiling only
/// interleaves independent accumulators. Strips of `MR` rows go to
/// `shim::par` threads.
///
/// # Panics
/// Panics if `C`'s rows are not contiguous or a packed operand does not
/// match `C`'s shape and `k`.
pub fn run_panels<S: StorageScalar, const MR: usize, const NR: usize>(
    k: usize,
    alpha: S::Acc,
    rows: &[S::Acc],
    cols: &[S::Acc],
    beta: S::Acc,
    c: ViewMut<'_, S>,
    pad_depth: bool,
) {
    let (m, n) = (c.rows(), c.cols());
    assert_eq!(
        rows.len(),
        k * m.div_ceil(MR) * MR,
        "packed rows size mismatch"
    );
    assert_eq!(
        cols.len(),
        k * n.div_ceil(NR) * NR,
        "packed columns size mismatch"
    );
    c.par_row_strips(MR, |i0, mut strip| {
        let ap = &rows[i0 * k..][..MR * k];
        for j in (0..n).step_by(NR) {
            let acc = tile::<S::Acc, MR, NR>(ap, &cols[j * k..][..NR * k], pad_depth);
            strip.merge_tile(0, j, &acc, |v, old: S| {
                S::narrow(alpha.mul_add(v, beta * old.widen()))
            });
        }
    });
}

/// One `MR × NR` tile of the product over the full depth. Kept out of
/// line: inlined into its caller, LLVM vectorised some shapes (the
/// derived f32 6×32 among them) into a schedule about 10× slower.
#[inline(never)]
fn tile<T: Scalar, const MR: usize, const NR: usize>(
    a: &[T],
    b: &[T],
    pad_depth: bool,
) -> [[T; NR]; MR] {
    let mut acc = [[T::ZERO; NR]; MR];
    for (ap, bp) in a.as_chunks::<MR>().0.iter().zip(b.as_chunks::<NR>().0) {
        for (row, av) in acc.iter_mut().zip(ap) {
            for (cell, bv) in row.iter_mut().zip(bp) {
                *cell = av.mul_add(*bv, *cell);
            }
        }
    }
    if pad_depth {
        for cell in acc.iter_mut().flatten() {
            *cell = T::ZERO.mul_add(T::ZERO, *cell);
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use clgemm_blas::gemm_ref::gemm_naive;
    use clgemm_blas::matrix::{Matrix, StorageOrder};
    use clgemm_blas::pack::{merge_c, pack_operand, pack_panels, stage_c, PackSpec};
    use clgemm_blas::{GemmType, Trans};

    #[test]
    fn matches_reference_gemm_within_tolerance() {
        let (m, n, k) = (24, 16, 32);
        // op(A) = Aᵀ where A is m x k col-major: packed operand is k x m.
        let a = Matrix::<f64>::test_pattern(m, k, StorageOrder::ColMajor, 1);
        let b = Matrix::<f64>::test_pattern(k, n, StorageOrder::ColMajor, 2);
        let c0 = Matrix::<f64>::test_pattern(m, n, StorageOrder::ColMajor, 3);

        let spec_a = PackSpec {
            trans: Trans::Yes,
            layout: BlockLayout::Cbl,
            wwg: 8,
            kwg: 8,
        };
        let spec_b = PackSpec {
            trans: Trans::No,
            layout: BlockLayout::Rbl,
            wwg: 8,
            kwg: 8,
        };
        let (pa, da) = pack_operand(&a, spec_a, k, m);
        let (pb, db) = pack_operand(&b, spec_b, k, n);

        let mut c_native: Vec<f64> = (0..m * n).map(|i| c0.at(i / n, i % n)).collect();
        run_native(
            m,
            n,
            k,
            1.5,
            &pa,
            da,
            BlockLayout::Cbl,
            &pb,
            db,
            BlockLayout::Rbl,
            -0.5,
            &mut c_native,
        );

        let mut c_ref = c0.clone();
        gemm_naive(GemmType::NN, 1.5, &a, &b, -0.5, &mut c_ref);
        for i in 0..m {
            for j in 0..n {
                let diff = (c_native[i * n + j] - c_ref.at(i, j)).abs();
                assert!(diff < 1e-10, "({i},{j}): {diff}");
            }
        }
    }

    #[test]
    fn beta_zero_ignores_initial_c() {
        let (m, n, k) = (8, 8, 8);
        let dims = PackedDims::new(8, 8, 4, 4).unwrap();
        let a = vec![1.0f32; 64];
        let b = vec![2.0f32; 64];
        let mut c = vec![f32::NAN; 64];
        run_native(
            m,
            n,
            k,
            1.0,
            &a,
            dims,
            BlockLayout::RowMajor,
            &b,
            dims,
            BlockLayout::RowMajor,
            0.0,
            &mut c,
        );
        // NaN * 0 is NaN — OpenCL mad(alpha, acc, beta*C) with beta=0 and
        // C=NaN propagates NaN, so the routine layer zero-fills staged C.
        assert!(c.iter().all(|v| v.is_nan()));
        let mut c = vec![0.0f32; 64];
        run_native(
            m,
            n,
            k,
            1.0,
            &a,
            dims,
            BlockLayout::RowMajor,
            &b,
            dims,
            BlockLayout::RowMajor,
            0.0,
            &mut c,
        );
        assert!(c.iter().all(|v| (*v - 16.0).abs() < 1e-6));
    }

    #[test]
    fn padded_region_does_not_contaminate() {
        // k = 6 with padded depth 8: padding rows are zero, so using
        // k = 6 vs k = 8 over zero padding must agree.
        let (m, n) = (4, 4);
        let dims = PackedDims::new(8, 4, 4, 4).unwrap();
        let mut a = vec![0.0f64; 32];
        let mut b = vec![0.0f64; 32];
        for p in 0..6 {
            for w in 0..4 {
                a[BlockLayout::Cbl.offset(p, w, dims)] = (p + w) as f64;
                b[BlockLayout::Cbl.offset(p, w, dims)] = (p * w + 1) as f64;
            }
        }
        let mut c6 = vec![0.0f64; 16];
        let mut c8 = vec![0.0f64; 16];
        run_native(
            m,
            n,
            6,
            1.0,
            &a,
            dims,
            BlockLayout::Cbl,
            &b,
            dims,
            BlockLayout::Cbl,
            0.0,
            &mut c6,
        );
        run_native(
            m,
            n,
            8,
            1.0,
            &a,
            dims,
            BlockLayout::Cbl,
            &b,
            dims,
            BlockLayout::Cbl,
            0.0,
            &mut c8,
        );
        assert_eq!(c6, c8);
    }

    #[test]
    #[should_panic(expected = "packed A size mismatch")]
    fn size_mismatch_panics() {
        let dims = PackedDims::new(8, 8, 4, 4).unwrap();
        let a = vec![0.0f64; 10];
        let b = vec![0.0f64; 64];
        let mut c = vec![0.0f64; 64];
        run_native(
            8,
            8,
            8,
            1.0,
            &a,
            dims,
            BlockLayout::RowMajor,
            &b,
            dims,
            BlockLayout::RowMajor,
            0.0,
            &mut c,
        );
    }

    /// `C ← α·op(A)·op(B) + β·C` through the reference engine's copies
    /// and [`run_native`], for column-major `op(A)` (`m × k`) and `op(B)`
    /// (`k × n`) packed into `la`/`lb` with 8×`kwg` and 4×`kwg` blocks;
    /// also whether the packed depth is padded past `k`.
    #[allow(clippy::too_many_arguments)]
    fn via_reference<T: Scalar>(
        a: &Matrix<T>,
        b: &Matrix<T>,
        alpha: T,
        beta: T,
        c0: &Matrix<T>,
        la: BlockLayout,
        lb: BlockLayout,
        kwg: usize,
    ) -> (Matrix<T>, bool) {
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        let spec = |trans, layout, wwg| PackSpec {
            trans,
            layout,
            wwg,
            kwg,
        };
        let (pa, da) = pack_operand(a, spec(Trans::Yes, la, 8), k, m);
        let (pb, db) = pack_operand(b, spec(Trans::No, lb, 4), k, n);
        let mut staged = stage_c(c0, 8, 4);
        run_native(
            da.width,
            db.width,
            da.k,
            alpha,
            &pa,
            da,
            la,
            &pb,
            db,
            lb,
            beta,
            &mut staged,
        );
        let mut c = c0.clone();
        merge_c(&staged, 8, 4, &mut c);
        (c, da.k > k)
    }

    /// The same product through the panel packer and an `MR × NR` tile;
    /// a column-major `C` runs as its row-major transpose.
    fn via_panels<T: Scalar, const MR: usize, const NR: usize>(
        a: &Matrix<T>,
        b: &Matrix<T>,
        alpha: T,
        beta: T,
        c0: &Matrix<T>,
        pad_depth: bool,
    ) -> Matrix<T> {
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        let mut c = c0.clone();
        let view = c.view_mut();
        let col_major = view.is_col_major();
        let ((xa, ra), (xb, rb)) = if col_major {
            ((b, n), (a, m))
        } else {
            ((a, m), (b, n))
        };
        // The left factor is op(A) (or op(B)ᵀ), depth first either way.
        let ta = if col_major { Trans::No } else { Trans::Yes };
        let tb = if col_major { Trans::Yes } else { Trans::No };
        let mut pa = vec![T::ZERO; k * ra.div_ceil(MR) * MR];
        let mut pb = vec![T::ZERO; k * rb.div_ceil(NR) * NR];
        pack_panels(xa.view(), ta, MR, &mut pa, true);
        pack_panels(xb.view(), tb, NR, &mut pb, false);
        let view = if col_major { view.transposed() } else { view };
        run_panels::<T, MR, NR>(k, alpha, &pa, &pb, beta, view, pad_depth);
        c
    }

    fn bits<T: Scalar>(c: &Matrix<T>) -> Vec<u64> {
        c.as_slice().iter().map(|v| v.to_f64().to_bits()).collect()
    }

    #[test]
    fn fast_is_bit_identical_to_reference_across_layouts_and_tiles() {
        // Same FMA chain per element, so exact equality — not tolerance —
        // against every layout pair the reference reads, for tiles that
        // do and do not divide the problem, with and without a padded
        // depth, and for both storage orders of C.
        let (m, n, k) = (24, 16, 12);
        for order in [StorageOrder::ColMajor, StorageOrder::RowMajor] {
            let a = Matrix::<f64>::from_fn(m, k, StorageOrder::ColMajor, |i, p| {
                ((i * 7 + p * 31 + 13) % 23) as f64 * 0.37 - 4.0
            });
            let b = Matrix::<f64>::from_fn(k, n, StorageOrder::ColMajor, |p, j| {
                ((p * 11 + j * 29 + 5) % 19) as f64 * 0.41 - 3.5
            });
            let c0 = Matrix::<f64>::from_fn(m, n, order, |i, j| ((i * n + j) % 17) as f64 - 8.0);
            for la in BlockLayout::ALL {
                for lb in BlockLayout::ALL {
                    for kwg in [4, 8] {
                        let (want, pad) = via_reference(&a, &b, 1.25, -0.75, &c0, la, lb, kwg);
                        let case = format!("{la}/{lb} kwg {kwg} {order:?}");
                        let got = [
                            via_panels::<f64, 1, 1>(&a, &b, 1.25, -0.75, &c0, pad),
                            via_panels::<f64, 4, 4>(&a, &b, 1.25, -0.75, &c0, pad),
                            via_panels::<f64, 5, 3>(&a, &b, 1.25, -0.75, &c0, pad),
                            via_panels::<f64, 6, 16>(&a, &b, 1.25, -0.75, &c0, pad),
                            via_panels::<f64, 7, 5>(&a, &b, 1.25, -0.75, &c0, pad),
                            via_panels::<f64, 16, 16>(&a, &b, 1.25, -0.75, &c0, pad),
                        ];
                        for (t, c) in got.iter().enumerate() {
                            assert_eq!(bits(c), bits(&want), "{case} tile #{t}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fast_handles_depth_padding_and_f32() {
        // f32, a tile larger than the problem in one direction, and
        // products that underflow to -0: the accumulators end at -0, and
        // only a padded depth turns them into +0, which β·(-0) then
        // exposes in the sign of C.
        let (m, n, k) = (8, 12, 5);
        let a = Matrix::<f32>::from_fn(m, k, StorageOrder::ColMajor, |i, p| {
            if (i + p) % 3 == 0 {
                1e-30
            } else {
                (p * i) as f32 * 0.5 - 1.0
            }
        });
        let b = Matrix::<f32>::from_fn(k, n, StorageOrder::ColMajor, |p, j| {
            if j % 2 == 0 {
                -1e-30
            } else {
                (p + 2 * j) as f32 * 0.25
            }
        });
        let tiny = Matrix::<f32>::from_fn(m, k, StorageOrder::ColMajor, |_, _| 1e-30);
        let c0 = Matrix::<f32>::from_fn(m, n, StorageOrder::ColMajor, |i, j| {
            if (i + j) % 2 == 0 {
                -0.0
            } else {
                i as f32 * 0.1
            }
        });
        for a in [&a, &tiny] {
            for kwg in [4, 5] {
                let (want, pad) = via_reference(
                    a,
                    &b,
                    2.0,
                    0.5,
                    &c0,
                    BlockLayout::Rbl,
                    BlockLayout::Cbl,
                    kwg,
                );
                assert_eq!(pad, kwg == 4);
                let got = via_panels::<f32, 16, 3>(a, &b, 2.0, 0.5, &c0, pad);
                assert_eq!(bits(&got), bits(&want), "kwg {kwg}");
                let got = via_panels::<f32, 6, 32>(a, &b, 2.0, 0.5, &c0, pad);
                assert_eq!(bits(&got), bits(&want), "kwg {kwg}");
            }
        }
        // The padding step matters: without it the -0 survives.
        let (want, pad) = via_reference(
            &tiny,
            &b,
            2.0,
            0.5,
            &c0,
            BlockLayout::Cbl,
            BlockLayout::Cbl,
            4,
        );
        assert!(pad);
        let unpadded = via_panels::<f32, 6, 32>(&tiny, &b, 2.0, 0.5, &c0, false);
        assert_ne!(bits(&unpadded), bits(&want));
    }

    #[test]
    fn tile_construction_enforces_the_register_budget() {
        // Zero edges are unrepresentable, and the tile each precision runs
        // fits the build's register file and fills whole vectors.
        assert!(Tile::new(0, 4).is_none());
        assert!(Tile::new(4, 0).is_none());
        let t = Tile::new(6, 32).unwrap();
        assert_eq!((t.mr(), t.nr(), t.dims()), (6, 32, (6, 32)));
        assert_eq!(t.to_string(), "6x32");
        assert_eq!(t.registers(8), 6 * 4 + 4 + 1);
        for precision in [Precision::F32, Precision::F64] {
            let t = microkernel_tile(precision);
            let lanes = crate::tile::lanes(precision);
            assert!(t.registers(lanes) <= crate::tile::VECTOR_REGISTERS, "{t}");
            assert_eq!(t.nr() % lanes, 0, "{t}");
        }
    }
}
