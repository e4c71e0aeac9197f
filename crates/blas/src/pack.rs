//! Copy/transpose/pad routines between user matrices and packed buffers.
//!
//! This is the "copying of matrix data" of §III-D and §IV-B: before the
//! fast `AᵀB` kernel can run, each operand is copied (with transposition
//! where the GEMM type requires it) into a zero-padded staging buffer laid
//! out in one of the Fig. 3 layouts; after the kernel, the padded `C` tile
//! is merged back into the user matrix.
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
/// look the same through it, so one fast copier per role serves them
/// all. `D` is `&[S]` for a [`View`], `&mut [S]` for a [`ViewMut`].
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
    /// [`merge`] can hand disjoint runs of them to threads.
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

/// Copy one destination panel whose element `(pi, wi)` lives at
/// `pi · wwg + wi`, reading `op(X)[p][w]` at `base + p · sp + w · sw`.
/// `klim × wlim` is the interior extent; the rest of the panel is the
/// zero padding fringe and is the only part that gets zero-filled.
#[allow(clippy::too_many_arguments)] // flat hot-path helper
fn pack_panel<S: StorageScalar>(
    panel: &mut [S::Acc],
    wwg: usize,
    rows: usize,
    src: &[S],
    base: usize,
    sp: usize,
    sw: usize,
    klim: usize,
    wlim: usize,
) {
    if sp == 1 && klim > 1 {
        // Source is contiguous along the depth axis: walk `p` innermost
        // so the reads stream, at the cost of a small (`wwg`-element)
        // stride on the cache-resident destination panel.
        for wi in 0..wlim {
            let src_col = &src[base + wi * sw..][..klim];
            for (pi, v) in src_col.iter().enumerate() {
                panel[pi * wwg + wi] = v.widen();
            }
        }
    } else {
        // Source is contiguous (or no better than strided) along the
        // width axis: walk `wi` innermost so the destination writes are
        // sequential.
        for pi in 0..klim {
            let row_base = base + pi * sp;
            let dst = &mut panel[pi * wwg..][..wlim];
            for (wi, d) in dst.iter_mut().enumerate() {
                *d = src[row_base + wi * sw].widen();
            }
        }
    }
    // Zero only the padding fringe: trailing columns of interior rows,
    // then whole trailing rows. Reused workspace buffers carry stale
    // data, and the fringe must read as zero — the kernel's dot products
    // run over the padded depth and the padded A/B cells contribute
    // `stale · x` terms to interior C elements otherwise.
    for pi in 0..klim {
        panel[pi * wwg + wlim..pi * wwg + wwg].fill(<S::Acc as Scalar>::ZERO);
    }
    panel[klim * wwg..rows * wwg].fill(<S::Acc as Scalar>::ZERO);
}

/// Pack `op(x)` — `k × width`, depth first — into a zero-padded staging
/// buffer in `spec`'s layout, widening each element into the
/// accumulation type. Same output as [`pack_into`] on the widened
/// matrix; the routine and every packed batch entry run this. The
/// traversal follows the source strides, offset arithmetic is hoisted
/// out of the inner loops, only the padding fringe is zero-filled, and
/// contiguous destination blocks go to `shim::par` threads unless
/// `serial`.
///
/// # Panics
/// Panics if `buf` does not match `dims` or `op(x)` exceeds them.
pub fn pack<S: StorageScalar>(
    x: View<'_, S>,
    spec: PackSpec,
    buf: &mut [S::Acc],
    dims: PackedDims,
    serial: bool,
) {
    assert_eq!(buf.len(), dims.len(), "staging buffer size mismatch");
    // `op(x)[p][w]` lives at `p · sp + w · sw`.
    let (k, width, sp, sw) = match spec.trans {
        Trans::No => (x.rows, x.cols, x.rs, x.cs),
        Trans::Yes => (x.cols, x.rows, x.cs, x.rs),
    };
    assert!(
        k <= dims.k && width <= dims.width,
        "operand shape mismatch: op(X) is {k}x{width}, padded to {}x{}",
        dims.k,
        dims.width
    );
    let src = x.data;
    match spec.layout {
        // One K × Wwg column-block is one contiguous destination span.
        BlockLayout::Cbl => for_chunks(buf, dims.k * dims.wwg, serial, |cb, block| {
            let w0 = cb * dims.wwg;
            let wlim = width.saturating_sub(w0).min(dims.wwg);
            pack_panel(block, dims.wwg, dims.k, src, w0 * sw, sp, sw, k, wlim);
        }),
        // One Kwg × W row-block is contiguous; its Kwg × Wwg sub-blocks
        // are packed panels.
        BlockLayout::Rbl => for_chunks(buf, dims.kwg * dims.width, serial, |rb, block| {
            let p0 = rb * dims.kwg;
            let klim = k.saturating_sub(p0).min(dims.kwg);
            for (cb, panel) in block.chunks_mut(dims.kwg * dims.wwg).enumerate() {
                let w0 = cb * dims.wwg;
                let wlim = width.saturating_sub(w0).min(dims.wwg);
                let base = p0 * sp + w0 * sw;
                pack_panel(panel, dims.wwg, dims.kwg, src, base, sp, sw, klim, wlim);
            }
        }),
        // Plain row-major: each depth row is contiguous; a strided source
        // row is gathered with a hoisted stride.
        BlockLayout::RowMajor => for_chunks(buf, dims.width, serial, |p, row| {
            let (interior, fringe) = row.split_at_mut(if p < k { width } else { 0 });
            if sw == 1 && p < k {
                for (d, v) in interior.iter_mut().zip(&src[p * sp..][..width]) {
                    *d = v.widen();
                }
            } else {
                for (w, d) in interior.iter_mut().enumerate() {
                    *d = src[p * sp + w * sw].widen();
                }
            }
            fringe.fill(<S::Acc as Scalar>::ZERO);
        }),
    }
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

/// Row-tile height for the cache-blocked staged-C copies.
const C_TILE: usize = 32;
/// Column-tile width: bounds the staged-row working set while a
/// column-major `C` is walked with unit stride.
const C_JTILE: usize = 128;

/// [`stage_c`] from a strided view into a caller-provided (reused)
/// buffer, widening into the accumulation type; identical output. Row
/// tiles of the destination are contiguous chunks, on `shim::par`
/// threads unless `serial`; only the padding fringe is zero-filled.
///
/// # Panics
/// Panics if `buf` does not match [`c_staging_dims`].
pub fn stage<S: StorageScalar>(
    c: View<'_, S>,
    mwg: usize,
    nwg: usize,
    buf: &mut [S::Acc],
    serial: bool,
) {
    let (m, n) = (c.rows, c.cols);
    let (mp, np) = c_staging_dims(m, n, mwg, nwg);
    assert_eq!(buf.len(), mp * np, "staged C buffer size mismatch");
    for_chunks(buf, C_TILE * np, serial, |t, rows| {
        let i0 = t * C_TILE;
        let ilim = m.saturating_sub(i0).min(rows.len() / np);
        stage_tile(c, i0, ilim, rows, np);
        // Fringe: trailing columns of interior rows, then whole padding rows.
        for ti in 0..ilim {
            rows[ti * np + n..(ti + 1) * np].fill(<S::Acc as Scalar>::ZERO);
        }
        rows[ilim * np..].fill(<S::Acc as Scalar>::ZERO);
    });
}

/// Copy user rows `i0 .. i0+ilim` into `ilim` staged row-major rows of
/// stride `np`. The loop nest follows the source strides: a row-major
/// source streams row by row; any other keeps its column walk innermost
/// per staged row and relies on the small row tile staying
/// cache-resident.
fn stage_tile<S: StorageScalar>(
    c: View<'_, S>,
    i0: usize,
    ilim: usize,
    rows: &mut [S::Acc],
    np: usize,
) {
    let n = c.cols;
    if c.cs == 1 {
        for ti in 0..ilim {
            let src = &c.data[(i0 + ti) * c.rs..][..n];
            for (d, v) in rows[ti * np..][..n].iter_mut().zip(src) {
                *d = v.widen();
            }
        }
    } else {
        // Unit-stride writes along each staged row; the strided column
        // reads stay cache-resident because only C_JTILE distinct source
        // columns are live per pass.
        for j0 in (0..n).step_by(C_JTILE) {
            let jlim = (j0 + C_JTILE).min(n);
            for ti in 0..ilim {
                let base = (i0 + ti) * c.rs;
                let row = &mut rows[ti * np + j0..ti * np + jlim];
                for (jj, cell) in row.iter_mut().enumerate() {
                    *cell = c.data[base + (j0 + jj) * c.cs].widen();
                }
            }
        }
    }
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

/// [`merge_c`] into a writable view, narrowing each element with
/// round-to-nearest-even — the single narrowing step of the
/// mixed-precision contract; identical result. Work splits over the
/// destination's contiguous rows or column tiles, on `shim::par` threads
/// unless `serial`, so each thread writes a disjoint region; gaps
/// between rows or columns stay untouched.
///
/// # Panics
/// Panics if `staged` does not match [`c_staging_dims`].
pub fn merge<S: StorageScalar>(
    staged: &[S::Acc],
    mwg: usize,
    nwg: usize,
    c: ViewMut<'_, S>,
    serial: bool,
) {
    let (m, n) = (c.rows, c.cols);
    let (mp, np) = c_staging_dims(m, n, mwg, nwg);
    assert_eq!(staged.len(), mp * np, "staged C buffer size mismatch");
    if c.cs == 1 && c.rs >= n {
        // Rows are contiguous: one row per chunk.
        for_chunks(c.data, c.rs, serial, |i, row| {
            if i < m {
                for (d, v) in row[..n].iter_mut().zip(&staged[i * np..][..n]) {
                    *d = S::narrow(*v);
                }
            }
        });
    } else {
        // Columns are contiguous: column tiles per chunk, with the staged
        // source walked in row tiles so its strided reads stay
        // cache-resident.
        let ld = c.cs;
        for_chunks(c.data, C_JTILE * ld, serial, |t, cols| {
            let j0 = t * C_JTILE;
            let jlim = n.saturating_sub(j0).min(C_JTILE);
            for i0 in (0..m).step_by(C_TILE) {
                let ilim = (i0 + C_TILE).min(m);
                for tj in 0..jlim {
                    let col = &mut cols[tj * ld + i0..tj * ld + ilim];
                    for (i, cell) in col.iter_mut().enumerate() {
                        *cell = S::narrow(staged[(i0 + i) * np + j0 + tj]);
                    }
                }
            }
        });
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

    #[test]
    fn pack_into_par_matches_oracle_over_all_shapes() {
        for order in [StorageOrder::ColMajor, StorageOrder::RowMajor] {
            for trans in [Trans::No, Trans::Yes] {
                for layout in BlockLayout::ALL {
                    // Odd source shape against blocking 4×3.
                    let x = Matrix::<f64>::test_pattern(13, 11, order, 5);
                    let (k, width) = x.dims_op(trans);
                    let spec = PackSpec {
                        trans,
                        layout,
                        wwg: 4,
                        kwg: 3,
                    };
                    let (oracle, dims) = pack_operand(&x, spec, k, width);
                    // Seed the reused buffer with garbage to prove the
                    // fringe is re-zeroed.
                    let mut buf = vec![f64::NAN; dims.len()];
                    pack(x.view(), spec, &mut buf, dims, false);
                    assert_eq!(buf, oracle, "{order:?} {trans:?} {layout}");
                }
            }
        }
    }

    #[test]
    fn stage_c_into_par_matches_oracle_and_rezeros_fringe() {
        for order in [StorageOrder::ColMajor, StorageOrder::RowMajor] {
            let c = Matrix::<f32>::test_pattern(37, 41, order, 9);
            let oracle = stage_c(&c, 16, 16);
            let mut buf = vec![f32::INFINITY; oracle.len()];
            stage(c.view(), 16, 16, &mut buf, false);
            assert_eq!(buf, oracle, "{order:?}");
        }
    }

    #[test]
    fn stage_c_into_par_handles_all_padding_row_tiles() {
        // Large Mwg pads far past the user rows, so whole row-tiles of the
        // staged buffer contain no user data at all.
        for order in [StorageOrder::ColMajor, StorageOrder::RowMajor] {
            let c = Matrix::<f64>::test_pattern(5, 7, order, 4);
            let oracle = stage_c(&c, 128, 16);
            let mut buf = vec![f64::NAN; oracle.len()];
            stage(c.view(), 128, 16, &mut buf, false);
            assert_eq!(buf, oracle, "{order:?}");
        }
    }

    #[test]
    fn stage_c_into_matches_parallel_stager() {
        for order in [StorageOrder::ColMajor, StorageOrder::RowMajor] {
            let c = Matrix::<f32>::test_pattern(37, 41, order, 9);
            let oracle = stage_c(&c, 16, 16);
            let mut serial = vec![f32::NAN; oracle.len()];
            let mut parallel = serial.clone();
            stage(c.view(), 16, 16, &mut serial, true);
            stage(c.view(), 16, 16, &mut parallel, false);
            assert_eq!(serial, oracle, "{order:?}");
            assert_eq!(serial, parallel, "{order:?}");
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
            merge(&staged, 8, 8, b.view_mut(), false);
            assert_eq!(a, b, "{order:?}");
            assert_eq!(a, src);
        }
    }

    #[test]
    fn merge_c_par_respects_padded_ld() {
        let src = Matrix::<f64>::test_pattern(10, 6, StorageOrder::ColMajor, 1);
        let staged = stage_c(&src, 4, 4);
        let mut out = Matrix::<f64>::zeros_with_ld(10, 6, 17, StorageOrder::ColMajor);
        merge(&staged, 4, 4, out.view_mut(), false);
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
            for layout in BlockLayout::ALL {
                let (src, m) = slice_fixture(13, 11, 19, 5);
                let (k, width) = m.dims_op(trans);
                let spec = PackSpec {
                    trans,
                    layout,
                    wwg: 4,
                    kwg: 3,
                };
                let (oracle, dims) = pack_operand(&m, spec, k, width);
                let mut buf = vec![f64::NAN; dims.len()];
                pack(View::new(&src, 13, 11, 1, 19), spec, &mut buf, dims, true);
                assert_eq!(buf, oracle, "{trans:?} {layout}");
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
        let spec = PackSpec {
            trans: Trans::No,
            layout: BlockLayout::Cbl,
            wwg: 4,
            kwg: 4,
        };
        let (oracle, dims) = pack_operand(&wide, spec, rows, cols);
        let mut buf = vec![f32::NAN; dims.len()];
        pack(
            View::new(&src, rows, cols, 1, ld),
            spec,
            &mut buf,
            dims,
            true,
        );
        assert_eq!(buf, oracle);
    }

    #[test]
    fn stage_slice_widen_matches_stage_c() {
        let (src, m) = slice_fixture(37, 29, 41, 3);
        let oracle = stage_c(&m, 16, 8);
        let mut buf = vec![f64::NAN; oracle.len()];
        stage(View::new(&src, 37, 29, 1, 41), 16, 8, &mut buf, true);
        assert_eq!(buf, oracle);
    }

    #[test]
    fn merge_slice_narrow_round_trips_and_skips_ld_padding() {
        let (src, m) = slice_fixture(10, 6, 17, 1);
        let staged = stage_c(&m, 4, 4);
        let mut out = vec![f64::NAN; src.len()];
        merge(&staged, 4, 4, ViewMut::new(&mut out, 10, 6, 1, 17), true);
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

    /// Every fast copier against its oracle on the widened matrix, for one
    /// storage type: row- and column-major sources × serial and parallel
    /// × each geometry, packing under both transposes and every layout.
    /// Destination buffers start as NaN, so a fringe or interior cell the
    /// copier skips fails the exact comparison.
    fn copier_table<S: StorageScalar>() {
        let nan = <S::Acc as Scalar>::from_f64(f64::NAN);
        // (rows, cols, ld padding, mwg = wwg, nwg, kwg)
        let geometries = [
            (13, 11, 6, 4, 4, 3),   // odd shape against 4×3 blocking
            (37, 41, 0, 16, 16, 8), // several row tiles, tight ld
            (37, 29, 4, 8, 8, 8),   // padded ld
            (5, 7, 3, 128, 16, 4),  // mwg far above m: all-padding row tiles
            (10, 6, 7, 4, 4, 4),    // ld 17 against 10 rows
            (3, 130, 2, 4, 8, 4),   // a second column tile, short last column
        ];
        for (rows, cols, pad, mwg, nwg, kwg) in geometries {
            for order in [StorageOrder::ColMajor, StorageOrder::RowMajor] {
                let (slab, (rs, cs), wide) = fixture::<S>(rows, cols, pad, order, 5);
                let x = View::new(&slab, rows, cols, rs, cs);
                for serial in [true, false] {
                    let case = format!("{} {rows}x{cols}+{pad} {order:?} serial={serial}", S::NAME);
                    for trans in [Trans::No, Trans::Yes] {
                        for layout in BlockLayout::ALL {
                            let spec = PackSpec {
                                trans,
                                layout,
                                wwg: mwg,
                                kwg,
                            };
                            let (k, width) = wide.dims_op(trans);
                            let (oracle, dims) = pack_operand(&wide, spec, k, width);
                            let mut buf = vec![nan; dims.len()];
                            pack(x, spec, &mut buf, dims, serial);
                            assert_eq!(buf, oracle, "pack {case} {trans:?} {layout}");
                        }
                    }

                    let oracle = stage_c(&wide, mwg, nwg);
                    let mut buf = vec![nan; oracle.len()];
                    stage(x, mwg, nwg, &mut buf, serial);
                    assert_eq!(buf, oracle, "stage {case}");

                    let (_, _, other) = fixture::<S>(rows, cols, pad, order, 9);
                    let staged = stage_c(&other, mwg, nwg);
                    let mut oracle = wide.clone();
                    merge_c(&staged, mwg, nwg, &mut oracle);
                    let mut out = slab.clone();
                    merge(
                        &staged,
                        mwg,
                        nwg,
                        ViewMut::new(&mut out, rows, cols, rs, cs),
                        serial,
                    );
                    for (idx, v) in out.iter().enumerate() {
                        let (i, j) = if rs == 1 {
                            (idx % cs, idx / cs)
                        } else {
                            (idx / rs, idx % rs)
                        };
                        if i < rows && j < cols {
                            assert_eq!(v.widen(), oracle.at(i, j), "merge {case} ({i},{j})");
                        } else {
                            assert!(
                                !v.widen().is_finite(),
                                "merge {case}: ld gap {idx} overwritten"
                            );
                        }
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
