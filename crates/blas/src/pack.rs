//! Copy/transpose/pad routines between user matrices and packed buffers.
//!
//! This is the "copying of matrix data" of §III-D and §IV-B: before the
//! fast `AᵀB` kernel can run, each operand is copied (with transposition
//! where the GEMM type requires it) into a zero-padded staging buffer laid
//! out in one of the Fig. 3 layouts; after the kernel, the padded `C` tile
//! is merged back into the user matrix. The reference engine runs these
//! copies ([`pack_into`], [`stage_c`], [`merge_c`]); the fast host path
//! packs each operand once into microkernel panels ([`pack_panels`]) and
//! updates the caller's `C` in place, one strip per thread
//! ([`ViewMut::par_row_strips`]).
//!
//! The copy is `O(N²)` work against the kernel's `O(N³)`, which is exactly
//! why the paper's routine is slow at small `N` and amortised at large `N`
//! — the timing model in `clgemm-device` charges for these copies so the
//! reproduction shows the same crossover.

use crate::layout::{round_up, BlockLayout, PackedDims};
use crate::matrix::Matrix;
use crate::scalar::{Scalar, StorageScalar};
use crate::Trans;

/// Description of one operand-packing operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackSpec {
    /// Transpose to apply while copying (`op` from the GEMM call combined
    /// with the kernel's fixed `Aᵀ·B` shape).
    pub trans: Trans,
    /// Target layout in the staging buffer.
    pub layout: BlockLayout,
    /// Width-direction blocking factor of the target (`Mwg` or `Nwg`).
    pub wwg: usize,
    /// Depth-direction blocking factor of the target (`Kwg`).
    pub kwg: usize,
}

/// Pack `op(X)` into a fresh zero-padded staging buffer.
///
/// The logical operand `op(X)` must have shape `k × width` — depth first,
/// exactly how the `AᵀB` kernel consumes both operands. Returns the buffer
/// and its padded dimensions.
///
/// # Panics
/// Panics if the logical dimensions of `op(X)` don't match `(k, width)`.
pub fn pack_operand<T: Scalar>(
    x: &Matrix<T>,
    spec: PackSpec,
    k: usize,
    width: usize,
) -> (Vec<T>, PackedDims) {
    let (xr, xc) = x.dims_op(spec.trans);
    assert_eq!(
        (xr, xc),
        (k, width),
        "operand shape mismatch: op(X) is {xr}x{xc}, expected {k}x{width}"
    );

    let kp = round_up(k, spec.kwg);
    let wp = round_up(width, spec.wwg);
    let dims = PackedDims::new(kp, wp, spec.wwg, spec.kwg)
        .expect("rounded dims are multiples of the blocking factors by construction");
    let mut buf = vec![T::ZERO; dims.len()];
    pack_into(x, spec, k, width, &mut buf, dims);
    (buf, dims)
}

/// Pack into a caller-provided buffer (used when staging buffers are
/// reused across calls). Padding cells are written with zero.
pub fn pack_into<T: Scalar>(
    x: &Matrix<T>,
    spec: PackSpec,
    k: usize,
    width: usize,
    buf: &mut [T],
    dims: PackedDims,
) {
    assert_eq!(buf.len(), dims.len(), "staging buffer size mismatch");
    // Walk the *destination* in its linear order for each block so the
    // write stream is sequential — the same optimisation a real packing
    // routine performs.
    for p in 0..dims.k {
        for w in 0..dims.width {
            let v = if p < k && w < width {
                x.at_op(spec.trans, p, w)
            } else {
                T::ZERO
            };
            buf[spec.layout.offset(p, w, dims)] = v;
        }
    }
}

/// A borrowed strided `rows × cols` matrix: element `(i, j)` lives at
/// `data[i·rs + j·cs]`. Row- and column-major [`Matrix`] storage
/// ([`Matrix::view`]) and a column-major slab entry of a strided batch
/// look the same through it, so one packer and one in-place update serve
/// them all. `D` is `&[S]` for a [`View`], `&mut [S]` for a [`ViewMut`].
#[derive(Debug, Clone, Copy)]
pub struct Strided<D> {
    data: D,
    rows: usize,
    cols: usize,
    rs: usize,
    cs: usize,
}

/// A read-only [`Strided`] view.
pub type View<'a, S> = Strided<&'a [S]>;
/// A writable [`Strided`] view.
pub type ViewMut<'a, S> = Strided<&'a mut [S]>;

fn assert_in_bounds(len: usize, rows: usize, cols: usize, rs: usize, cs: usize) {
    assert!(
        rows == 0 || cols == 0 || (rows - 1) * rs + (cols - 1) * cs < len,
        "{rows}x{cols} view with strides ({rs}, {cs}) overruns {len} elements"
    );
}

impl<'a, S> View<'a, S> {
    /// A view with row stride `rs` and column stride `cs`.
    ///
    /// # Panics
    /// Panics if the last element lies outside `data`.
    #[must_use]
    pub fn new(data: &'a [S], rows: usize, cols: usize, rs: usize, cs: usize) -> Self {
        assert_in_bounds(data.len(), rows, cols, rs, cs);
        Strided {
            data,
            rows,
            cols,
            rs,
            cs,
        }
    }
}

impl<'a, S: Copy> ViewMut<'a, S> {
    /// A writable view with row stride `rs` and column stride `cs`, which
    /// must be row- or column-major (one unit stride, a leading dimension
    /// covering the other extent): rows or columns never overlap, so
    /// [`ViewMut::par_row_strips`] can hand disjoint runs of them to
    /// threads.
    ///
    /// # Panics
    /// Panics if the view overruns `data` or its rows or columns overlap.
    pub fn new(data: &'a mut [S], rows: usize, cols: usize, rs: usize, cs: usize) -> Self {
        assert_in_bounds(data.len(), rows, cols, rs, cs);
        assert!(
            (cs == 1 && rs >= cols) || (rs == 1 && cs >= rows),
            "writable {rows}x{cols} view needs row- or column-major strides, got ({rs}, {cs})"
        );
        Strided {
            data,
            rows,
            cols,
            rs,
            cs,
        }
    }

    /// The same elements, read-only.
    #[must_use]
    pub fn view(&self) -> View<'_, S> {
        View::new(self.data, self.rows, self.cols, self.rs, self.cs)
    }

    /// Replace every element `x` with `f(x)`; gaps between rows or
    /// columns stay untouched.
    pub fn update(&mut self, f: impl Fn(S) -> S) {
        for j in 0..self.cols {
            for i in 0..self.rows {
                let cell = &mut self.data[i * self.rs + j * self.cs];
                *cell = f(*cell);
            }
        }
    }

    /// Merge a register tile into a row-major view: element `(i0 + i,
    /// j0 + j)` becomes `f(tile[i][j], old)`, one contiguous row run per
    /// tile row. Rows or columns of the tile past the view's edge are
    /// dropped.
    #[inline]
    pub fn merge_tile<A: Copy, const MR: usize, const NR: usize>(
        &mut self,
        i0: usize,
        j0: usize,
        tile: &[[A; NR]; MR],
        f: impl Fn(A, S) -> S,
    ) {
        debug_assert_eq!(self.cs, 1, "merge_tile needs contiguous rows");
        let nh = NR.min(self.cols - j0);
        for (i, row) in tile.iter().enumerate().take(self.rows - i0) {
            let line = &mut self.data[(i0 + i) * self.rs + j0..][..nh];
            for (cell, v) in line.iter_mut().zip(row) {
                *cell = f(*v, *cell);
            }
        }
    }
}

impl<'a, S: Copy + Send> ViewMut<'a, S> {
    /// Split a row-major view into strips of `mr` whole rows and run
    /// `f(i0, strip)` on each, on `shim::par` threads. A strip is a
    /// contiguous run of the data, so no two threads touch one element,
    /// and gaps between rows stay untouched. A column-major view is split
    /// into column strips through [`Strided::transposed`].
    ///
    /// # Panics
    /// Panics if the view's rows are not contiguous.
    pub fn par_row_strips(self, mr: usize, f: impl Fn(usize, ViewMut<'_, S>) + Sync) {
        let Strided {
            data,
            rows,
            cols,
            rs,
            cs,
        } = self;
        assert!(cs == 1 && rs >= cols, "row strips need contiguous rows");
        if rows == 0 || cols == 0 {
            return;
        }
        let data = &mut data[..(rows - 1) * rs + cols];
        clgemm_shim::par::par_chunks_mut(data, mr * rs, |t, strip| {
            let i0 = t * mr;
            f(i0, ViewMut::new(strip, mr.min(rows - i0), cols, rs, 1));
        });
    }
}

impl<D> Strided<D> {
    /// The transposed matrix over the same elements.
    #[must_use]
    pub fn transposed(self) -> Self {
        Strided {
            data: self.data,
            rows: self.cols,
            cols: self.rows,
            rs: self.cs,
            cs: self.rs,
        }
    }

    /// `false` when rows are contiguous and disjoint (unit column stride,
    /// a row stride covering the columns); a writable view is
    /// column-major otherwise.
    #[must_use]
    pub fn is_col_major(&self) -> bool {
        !(self.cs == 1 && self.rs >= self.cols)
    }

    /// Rows of the viewed matrix.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns of the viewed matrix.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }
}

/// `f(index, chunk)` over consecutive `chunk`-sized pieces of `data`, on
/// `shim::par` threads unless `serial`.
fn for_chunks<T: Send>(
    data: &mut [T],
    chunk: usize,
    serial: bool,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    if serial {
        for (i, c) in data.chunks_mut(chunk.max(1)).enumerate() {
            f(i, c);
        }
    } else {
        clgemm_shim::par::par_chunks_mut(data, chunk, f);
    }
}

/// Copy one `k`-deep destination panel whose element `(pi, wi)` lives at
/// `pi · w + wi`, reading `op(X)[p][w]` at `base + p · sp + w · sw`.
/// Columns from `wlim` on are the zero padding fringe.
#[allow(clippy::too_many_arguments)] // flat hot-path helper
fn pack_panel<S: StorageScalar>(
    panel: &mut [S::Acc],
    w: usize,
    src: &[S],
    base: usize,
    sp: usize,
    sw: usize,
    k: usize,
    wlim: usize,
) {
    if sp == 1 && k > 1 {
        // Source is contiguous along the depth axis: walk `p` innermost
        // so the reads stream, at the cost of a small (`w`-element)
        // stride on the cache-resident destination panel.
        for wi in 0..wlim {
            let src_col = &src[base + wi * sw..][..k];
            for (pi, v) in src_col.iter().enumerate() {
                panel[pi * w + wi] = v.widen();
            }
        }
    } else {
        // Source is contiguous (or no better than strided) along the
        // width axis: walk `wi` innermost so the destination writes are
        // sequential.
        for pi in 0..k {
            let row_base = base + pi * sp;
            let dst = &mut panel[pi * w..][..wlim];
            for (wi, d) in dst.iter_mut().enumerate() {
                *d = src[row_base + wi * sw].widen();
            }
        }
    }
    // Zero only the padding fringe. Reused workspace buffers carry stale
    // data, and the fringe feeds the tile's dropped rows or columns; zero
    // keeps that work finite and the panels equal to the oracle's.
    for pi in 0..k {
        panel[pi * w + wlim..pi * w + w].fill(<S::Acc as Scalar>::ZERO);
    }
}

/// Pack `op(x)` — `k × width`, depth first — into `w`-wide depth-major
/// panels for the host microkernel, widening each element into the
/// accumulation type. Panel `q` holds columns `q·w .. q·w + w` of
/// `op(x)` at `buf[q·w·k ..]`, one `w`-element row per depth step; the
/// last panel's columns past `width` are zero. This is
/// [`pack_operand`]'s [`BlockLayout::Cbl`] layout with `wwg = w` and
/// `kwg = k`. The traversal follows the source strides, only the fringe
/// is zero-filled, and panels go to `shim::par` threads unless `serial`.
///
/// # Panics
/// Panics if `buf` is not `k · round_up(width, w)` long.
pub fn pack_panels<S: StorageScalar>(
    x: View<'_, S>,
    trans: Trans,
    w: usize,
    buf: &mut [S::Acc],
    serial: bool,
) {
    // `op(x)[p][i]` lives at `p · sp + i · sw`.
    let (k, width, sp, sw) = match trans {
        Trans::No => (x.rows, x.cols, x.rs, x.cs),
        Trans::Yes => (x.cols, x.rows, x.cs, x.rs),
    };
    assert_eq!(
        buf.len(),
        k * round_up(width, w),
        "panel buffer size mismatch"
    );
    for_chunks(buf, k * w, serial, |q, panel| {
        let w0 = q * w;
        pack_panel(panel, w, x.data, w0 * sw, sp, sw, k, (width - w0).min(w));
    });
}

/// Read one element of a packed operand back out (test/debug helper).
#[must_use]
pub fn packed_at<T: Scalar>(
    buf: &[T],
    layout: BlockLayout,
    dims: PackedDims,
    p: usize,
    w: usize,
) -> T {
    buf[layout.offset(p, w, dims)]
}

/// Unpack a packed operand back into a dense `k × width` matrix, dropping
/// padding (the inverse of [`pack_operand`]; used by property tests).
#[must_use]
pub fn unpack_operand<T: Scalar>(
    buf: &[T],
    layout: BlockLayout,
    dims: PackedDims,
    k: usize,
    width: usize,
    order: crate::StorageOrder,
) -> Matrix<T> {
    Matrix::from_fn(k, width, order, |p, w| buf[layout.offset(p, w, dims)])
}

/// Dimensions of the padded `C` staging buffer for a `m × n` result with
/// work-group factors `mwg × nwg`. `C` is staged row-major (the kernel's
/// natural order); the merge step converts back to the user's order.
#[must_use]
pub fn c_staging_dims(m: usize, n: usize, mwg: usize, nwg: usize) -> (usize, usize) {
    (round_up(m, mwg), round_up(n, nwg))
}

/// Stage the user's `C` into a padded row-major buffer (needed when
/// `β ≠ 0`, because the kernel reads `C` to apply `β·C`).
///
/// Only the padding fringe is zero-filled; the interior is written once
/// from the user matrix. The fringe must read as zero so the padded
/// region the kernel computes (`mad(α, 0, β·fringe)`) stays finite and
/// deterministic — with β = 0 a stale NaN/Inf fringe cell would turn the
/// padded output into NaN (`0 · NaN`; see the NaN-propagation note in
/// the executor's `beta_zero_ignores_initial_c` test), and property
/// tests compare staged buffers of the reuse and fresh-allocation paths.
#[must_use]
pub fn stage_c<T: Scalar>(c: &Matrix<T>, mwg: usize, nwg: usize) -> Vec<T> {
    let (mp, np) = c_staging_dims(c.rows(), c.cols(), mwg, nwg);
    let mut buf = Vec::with_capacity(mp * np);
    // Every cell is written exactly once: interior row, its fringe
    // columns, then the whole-row fringe at the bottom.
    for i in 0..c.rows() {
        for j in 0..c.cols() {
            buf.push(c.at(i, j));
        }
        buf.resize((i + 1) * np, T::ZERO);
    }
    buf.resize(mp * np, T::ZERO);
    buf
}

/// Merge the kernel's padded row-major `C` result back into the user
/// matrix, discarding padding rows/columns.
pub fn merge_c<T: Scalar>(staged: &[T], mwg: usize, nwg: usize, c: &mut Matrix<T>) {
    let (mp, np) = c_staging_dims(c.rows(), c.cols(), mwg, nwg);
    assert_eq!(staged.len(), mp * np, "staged C buffer size mismatch");
    for i in 0..c.rows() {
        for j in 0..c.cols() {
            *c.at_mut(i, j) = staged[i * np + j];
        }
    }
}

/// Number of scalar memory operations (reads + writes) the packing of one
/// `k × width` operand performs, used by the routine-level timing model to
/// charge the copy overhead.
#[must_use]
pub fn pack_mem_ops(k: usize, width: usize, kwg: usize, wwg: usize) -> usize {
    // Read k*width source elements, write the padded destination.
    k * width + round_up(k, kwg) * round_up(width, wwg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StorageOrder;

    #[test]
    fn pack_then_unpack_is_identity_without_transpose() {
        let x = Matrix::<f64>::test_pattern(12, 10, StorageOrder::ColMajor, 7);
        for layout in BlockLayout::ALL {
            let spec = PackSpec {
                trans: Trans::No,
                layout,
                wwg: 4,
                kwg: 3,
            };
            let (buf, dims) = pack_operand(&x, spec, 12, 10);
            let back = unpack_operand(&buf, layout, dims, 12, 10, StorageOrder::ColMajor);
            assert_eq!(back, x, "layout {layout}");
        }
    }

    #[test]
    fn pack_applies_transpose() {
        let x = Matrix::<f32>::test_pattern(5, 9, StorageOrder::RowMajor, 1);
        let spec = PackSpec {
            trans: Trans::Yes,
            layout: BlockLayout::Cbl,
            wwg: 5,
            kwg: 3,
        };
        // op(X) = Xᵀ is 9x5: depth 9, width 5.
        let (buf, dims) = pack_operand(&x, spec, 9, 5);
        for p in 0..9 {
            for w in 0..5 {
                assert_eq!(packed_at(&buf, spec.layout, dims, p, w), x.at(w, p));
            }
        }
    }

    #[test]
    fn padding_cells_are_zero() {
        let x = Matrix::<f64>::test_pattern(5, 6, StorageOrder::ColMajor, 0);
        let spec = PackSpec {
            trans: Trans::No,
            layout: BlockLayout::Rbl,
            wwg: 4,
            kwg: 4,
        };
        let (buf, dims) = pack_operand(&x, spec, 5, 6);
        assert_eq!((dims.k, dims.width), (8, 8));
        for p in 0..8 {
            for w in 0..8 {
                let v = packed_at(&buf, spec.layout, dims, p, w);
                if p >= 5 || w >= 6 {
                    assert_eq!(v, 0.0, "padding at ({p},{w}) not zero");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "operand shape mismatch")]
    fn wrong_shape_is_rejected() {
        let x = Matrix::<f64>::zeros(4, 4, StorageOrder::ColMajor);
        let spec = PackSpec {
            trans: Trans::No,
            layout: BlockLayout::RowMajor,
            wwg: 2,
            kwg: 2,
        };
        let _ = pack_operand(&x, spec, 5, 4);
    }

    /// The panel oracle: `op(x)` through [`pack_operand`] in the CBL
    /// layout, `w` wide with one depth block.
    fn panel_oracle<T: Scalar>(x: &Matrix<T>, trans: Trans, w: usize) -> Vec<T> {
        let (k, width) = x.dims_op(trans);
        let spec = PackSpec {
            trans,
            layout: BlockLayout::Cbl,
            wwg: w,
            kwg: k.max(1),
        };
        pack_operand(x, spec, k, width).0
    }

    /// Merge a staged row-major `C` (row stride `np`) into `c` the way
    /// the microkernel updates the caller's `C`: `MR × 8` tiles through
    /// [`ViewMut::merge_tile`], in row strips of `MR` rows, a column-major
    /// `C` through its transpose. Tile cells outside `C` hold a finite
    /// sentinel, so merging one into an `ld` gap shows.
    fn merge_by_strips<S: StorageScalar, const MR: usize>(
        staged: &[S::Acc],
        np: usize,
        c: ViewMut<'_, S>,
    ) {
        const NR: usize = 8;
        let col_major = c.is_col_major();
        let c = if col_major { c.transposed() } else { c };
        let at = |r: usize, q: usize| {
            if col_major {
                staged[q * np + r]
            } else {
                staged[r * np + q]
            }
        };
        let sentinel = <S::Acc as Scalar>::from_f64(12345.0);
        c.par_row_strips(MR, |r0, mut strip| {
            for q0 in (0..strip.cols()).step_by(NR) {
                let tile: [[S::Acc; NR]; MR] = std::array::from_fn(|r| {
                    std::array::from_fn(|q| {
                        if r < strip.rows() && q0 + q < strip.cols() {
                            at(r0 + r, q0 + q)
                        } else {
                            sentinel
                        }
                    })
                });
                strip.merge_tile(0, q0, &tile, |v, _| S::narrow(v));
            }
        });
    }

    #[test]
    fn pack_into_par_matches_oracle_over_all_shapes() {
        for order in [StorageOrder::ColMajor, StorageOrder::RowMajor] {
            for trans in [Trans::No, Trans::Yes] {
                // Odd source shape against panel widths below, at and
                // above both edges.
                for w in [1, 4, 6, 11, 32] {
                    let x = Matrix::<f64>::test_pattern(13, 11, order, 5);
                    let oracle = panel_oracle(&x, trans, w);
                    // Seed the reused buffer with garbage to prove the
                    // fringe is re-zeroed.
                    let mut buf = vec![f64::NAN; oracle.len()];
                    pack_panels(x.view(), trans, w, &mut buf, false);
                    assert_eq!(buf, oracle, "{order:?} {trans:?} w={w}");
                }
            }
        }
    }

    #[test]
    fn merge_c_par_matches_oracle() {
        for order in [StorageOrder::ColMajor, StorageOrder::RowMajor] {
            let src = Matrix::<f64>::test_pattern(37, 29, order, 3);
            let staged = stage_c(&src, 8, 8);
            let mut a = Matrix::<f64>::zeros(37, 29, order);
            let mut b = Matrix::<f64>::zeros(37, 29, order);
            merge_c(&staged, 8, 8, &mut a);
            merge_by_strips::<f64, 6>(&staged, 32, b.view_mut());
            assert_eq!(a, b, "{order:?}");
            assert_eq!(a, src);
        }
    }

    #[test]
    fn merge_c_par_respects_padded_ld() {
        let src = Matrix::<f64>::test_pattern(10, 6, StorageOrder::ColMajor, 1);
        let staged = stage_c(&src, 4, 4);
        let mut out = Matrix::<f64>::zeros_with_ld(10, 6, 17, StorageOrder::ColMajor);
        merge_by_strips::<f64, 6>(&staged, 8, out.view_mut());
        for j in 0..6 {
            for i in 0..10 {
                assert_eq!(out.at(i, j), src.at(i, j));
            }
        }
    }

    #[test]
    fn stage_and_merge_c_round_trip() {
        let c = Matrix::<f64>::test_pattern(7, 5, StorageOrder::ColMajor, 2);
        let staged = stage_c(&c, 4, 4);
        assert_eq!(staged.len(), 8 * 8);
        let mut out = Matrix::<f64>::zeros(7, 5, StorageOrder::ColMajor);
        merge_c(&staged, 4, 4, &mut out);
        assert_eq!(out, c);
    }

    #[test]
    fn exact_multiple_sizes_need_no_padding() {
        let (mp, np) = c_staging_dims(64, 32, 16, 8);
        assert_eq!((mp, np), (64, 32));
    }

    #[test]
    fn pack_mem_ops_counts_padding_writes() {
        assert_eq!(pack_mem_ops(4, 4, 4, 4), 32);
        // 5x5 source padded to 8x8: 25 reads + 64 writes.
        assert_eq!(pack_mem_ops(5, 5, 4, 4), 25 + 64);
    }

    /// A column-major slab entry plus an equal-valued [`Matrix`], with a
    /// padded leading dimension so the stride handling is exercised.
    fn slice_fixture(rows: usize, cols: usize, ld: usize, seed: u64) -> (Vec<f64>, Matrix<f64>) {
        let m = Matrix::<f64>::test_pattern(rows, cols, StorageOrder::ColMajor, seed);
        let mut src = vec![f64::NAN; if cols == 0 { 0 } else { ld * (cols - 1) + rows }];
        for j in 0..cols {
            for i in 0..rows {
                src[j * ld + i] = m.at(i, j);
            }
        }
        (src, m)
    }

    #[test]
    fn pack_slice_widen_matches_pack_operand_for_identity_widening() {
        for trans in [Trans::No, Trans::Yes] {
            for w in [3, 4, 16] {
                let (src, m) = slice_fixture(13, 11, 19, 5);
                let oracle = panel_oracle(&m, trans, w);
                let mut buf = vec![f64::NAN; oracle.len()];
                pack_panels(View::new(&src, 13, 11, 1, 19), trans, w, &mut buf, true);
                assert_eq!(buf, oracle, "{trans:?} w={w}");
            }
        }
    }

    #[test]
    fn pack_slice_widen_converts_half_storage_exactly() {
        use crate::scalar::F16;
        // A half slab packs to the same f32 buffer as packing the widened
        // matrix directly: widening is exact, so convert-on-pack cannot
        // perturb the bit-exactness contract.
        let (rows, cols, ld) = (7, 6, 9);
        let mut src = vec![F16::narrow(0.0); ld * (cols - 1) + rows];
        let wide = Matrix::<f32>::from_fn(rows, cols, StorageOrder::ColMajor, |i, j| {
            let h = F16::narrow((i * cols + j) as f32 * 0.25 - 3.0);
            h.widen()
        });
        for j in 0..cols {
            for i in 0..rows {
                src[j * ld + i] = F16::narrow(wide.at(i, j));
            }
        }
        let oracle = panel_oracle(&wide, Trans::No, 4);
        let mut buf = vec![f32::NAN; oracle.len()];
        pack_panels(
            View::new(&src, rows, cols, 1, ld),
            Trans::No,
            4,
            &mut buf,
            true,
        );
        assert_eq!(buf, oracle);
    }

    #[test]
    fn merge_slice_narrow_round_trips_and_skips_ld_padding() {
        let (src, m) = slice_fixture(10, 6, 17, 1);
        let staged = stage_c(&m, 4, 4);
        let mut out = vec![f64::NAN; src.len()];
        merge_by_strips::<f64, 4>(&staged, 8, ViewMut::new(&mut out, 10, 6, 1, 17));
        for j in 0..6 {
            for i in 0..10 {
                assert_eq!(out[j * 17 + i], m.at(i, j));
            }
            // Padding rows between columns stay untouched.
            for i in 10..17.min(out.len() - j * 17) {
                assert!(out[j * 17 + i].is_nan(), "ld gap overwritten at ({i},{j})");
            }
        }
    }

    /// A `rows × cols` slab of `S` in `order`, its leading dimension
    /// `pad` past the minor extent and its length exactly the last
    /// element's offset plus one (as a batch slab entry's), NaN in every
    /// gap so a copier that reads one fails; with the view strides and
    /// the widened matrix holding the same values, which the oracles take.
    fn fixture<S: StorageScalar>(
        rows: usize,
        cols: usize,
        pad: usize,
        order: StorageOrder,
        seed: u64,
    ) -> (Vec<S>, (usize, usize), Matrix<S::Acc>) {
        let pattern = Matrix::<S::Acc>::test_pattern(rows, cols, order, seed);
        let wide = Matrix::from_fn(rows, cols, order, |i, j| {
            S::narrow(pattern.at(i, j)).widen()
        });
        let (rs, cs) = match order {
            StorageOrder::ColMajor => (1, rows + pad),
            StorageOrder::RowMajor => (cols + pad, 1),
        };
        let mut slab = vec![S::from_f64(f64::NAN); (rows - 1) * rs + (cols - 1) * cs + 1];
        for j in 0..cols {
            for i in 0..rows {
                slab[i * rs + j * cs] = S::narrow(wide.at(i, j));
            }
        }
        (slab, (rs, cs), wide)
    }

    /// The panel packer and the strip merge against their oracles on the
    /// widened matrix, for one storage type: row- and column-major
    /// sources × serial and parallel × each geometry, packing under both
    /// transposes. Destination buffers start as NaN, so a fringe or
    /// interior cell the packer skips fails the exact comparison, and
    /// every ld-gap cell of the merged slab must stay untouched.
    fn copier_table<S: StorageScalar>() {
        let nan = <S::Acc as Scalar>::from_f64(f64::NAN);
        // (rows, cols, ld padding, panel width, strip lines: even 6, odd 5)
        let geometries = [
            (13, 11, 6, 4, 5),  // odd shape against 4-wide panels
            (37, 41, 0, 16, 6), // several panels, tight ld
            (37, 29, 4, 8, 5),  // padded ld
            (5, 7, 3, 128, 6),  // one panel far wider than the source
            (10, 6, 7, 6, 5),   // ld 17 against 10 rows
            (3, 130, 2, 32, 6), // a short last panel and strip
        ];
        for (rows, cols, pad, w, lines) in geometries {
            for order in [StorageOrder::ColMajor, StorageOrder::RowMajor] {
                let (slab, (rs, cs), wide) = fixture::<S>(rows, cols, pad, order, 5);
                let x = View::new(&slab, rows, cols, rs, cs);
                for serial in [true, false] {
                    let case = format!("{} {rows}x{cols}+{pad} {order:?} serial={serial}", S::NAME);
                    for trans in [Trans::No, Trans::Yes] {
                        let oracle = panel_oracle(&wide, trans, w);
                        let mut buf = vec![nan; oracle.len()];
                        pack_panels(x, trans, w, &mut buf, serial);
                        assert_eq!(buf, oracle, "pack {case} {trans:?}");
                    }
                }

                let (_, _, other) = fixture::<S>(rows, cols, pad, order, 9);
                let staged = stage_c(&other, 1, 1);
                let mut oracle = wide.clone();
                merge_c(&staged, 1, 1, &mut oracle);
                let mut out = slab.clone();
                let view = ViewMut::new(&mut out, rows, cols, rs, cs);
                if lines % 2 == 0 {
                    merge_by_strips::<S, 6>(&staged, cols, view);
                } else {
                    merge_by_strips::<S, 5>(&staged, cols, view);
                }
                for (idx, v) in out.iter().enumerate() {
                    let (i, j) = if rs == 1 {
                        (idx % cs, idx / cs)
                    } else {
                        (idx / rs, idx % rs)
                    };
                    if i < rows && j < cols {
                        assert_eq!(
                            v.widen(),
                            oracle.at(i, j),
                            "merge {rows}x{cols}+{pad} {order:?} ({i},{j})"
                        );
                    } else {
                        assert!(
                            !v.widen().is_finite(),
                            "merge {rows}x{cols}+{pad} {order:?}: ld gap {idx} overwritten"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fast_copiers_match_the_oracles_for_every_storage_type() {
        copier_table::<f32>();
        copier_table::<f64>();
        copier_table::<crate::scalar::F16>();
        copier_table::<crate::scalar::Bf16>();
    }
}
