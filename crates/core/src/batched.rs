//! Strided-batched GEMM: many same-shaped problems through one call.
//!
//! The serving workloads the routine layer sees are rarely one big GEMM;
//! they are *batches* of identical small problems (one weight matrix
//! against many activations, attention heads, per-sample covariance).
//! Looping [`TunedGemm::gemm`] over the entries pays the full routine
//! fixed cost — workspace acquisition, tile selection, pack specs, model
//! bookkeeping, and (on device) a kernel launch — once *per entry*.
//! [`TunedGemm::gemm_batch`] pays it once per *batch*:
//!
//! * One [`GemmBatch`] descriptor carries the shared shape/type/layout
//!   and per-matrix strides; a zero stride marks a shared operand that
//!   is packed exactly once.
//! * Entries execute in parallel through the shim `par` harness, each
//!   worker reusing its own grow-only [`BatchWorkspace`] slot — zero
//!   steady-state allocations, gated by [`BatchWorkspace::grows`].
//! * Small shapes (every dimension at or below [`DIRECT_BATCH_MAX`])
//!   skip packing entirely: a SIMD register-tiled direct kernel reads
//!   `A`/`B` in place. Larger entries each run the single call's
//!   pipeline: panel packs and the host microkernel, which updates the
//!   entry's `C` in place.
//! * Storage may be `f16`/`bf16` ([`StorageScalar`]): operands widen to
//!   the accumulation type on pack (or per load on the direct path), the
//!   kernel runs its usual `f32` FMA chain, and results narrow once with
//!   round-to-nearest-even when the tile is merged into `C`. Widening is
//!   exact, so every stored type is bit-identical to computing on
//!   pre-widened matrices.
//!
//! Numerics are the routine's own: every `C` element sees one
//! ascending-`p` FMA chain and one `α·acc + β·old` merge, so the batched
//! paths are bit-identical to a loop of single-GEMM calls — the property
//! suite in `tests/tests/batched.rs` pins this for all four storage
//! types.

use crate::profile::launch_profile;
use crate::routine::{run_packed, scale_c, PackDecision, TunedGemm};
use crate::tile::TileDecision;
use clgemm_blas::pack::{pack_panels, View, ViewMut};
use clgemm_blas::scalar::{Precision, Scalar, StorageScalar};
use clgemm_blas::workspace::{BatchWorkspace, WorkspaceScalar};
use clgemm_blas::{BatchError, GemmBatch, Trans};
use clgemm_device::estimate_batch_seconds;
use clgemm_shim::par::{par_items_mut, worker_count};
use clgemm_trace::Registry;

/// Batches whose `m`, `n` and `k` are all at or below this run the
/// copy-free direct kernel instead of packing into microkernel panels.
///
/// Benched in `BENCH_batched.json` (`crossover` table, 16 entries per
/// batch): the direct kernel wins up to 48³ (28 against 33 µs at 32³),
/// and the packed pipeline — panel packs plus the register-blocked
/// microkernel — from 64³ on, by a margin that grows with the edge
/// (1.1× at 64³, 1.7× at 128³, 2.4× at 512³): the direct kernel's 16×8
/// tile reads its operands in place through strided loads, while the
/// microkernel streams contiguous panels. The threshold stays at 64³
/// rather than following the crossover down to 48³, so every batched
/// call the serving workloads make (edges 33–64) keeps the direct path
/// and the modelled cost the serving layer's clocks were set with.
pub const DIRECT_BATCH_MAX: usize = 64;

/// Which host data path executed a batched call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchPath {
    /// Register-tiled in-place kernel; no packing, staging or padding.
    Direct,
    /// Per-entry panel packs and microkernel, shared operands packed once.
    Packed,
}

impl BatchPath {
    /// Stable lowercase tag for metrics and the bench JSON.
    #[must_use]
    pub fn tag(self) -> &'static str {
        match self {
            BatchPath::Direct => "direct",
            BatchPath::Packed => "packed",
        }
    }
}

impl std::fmt::Display for BatchPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.tag())
    }
}

/// Options controlling [`TunedGemm::gemm_batch_with`].
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchOptions {
    /// Force a specific path instead of the size-based choice (the bench
    /// crossover sweep measures both paths on every shape this way).
    pub force_path: Option<BatchPath>,
}

/// The record of one batched call: path taken, fan-out, and the modelled
/// time the serving layer compares wall clocks against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchRun {
    /// The data path that executed.
    pub path: BatchPath,
    /// Entries in the batch.
    pub batch: usize,
    /// Parallel workers the entries fanned out to.
    pub workers: usize,
    /// Modelled seconds for the whole batch.
    pub total: f64,
    /// Effective batch GFlop/s (`2·m·n·k·batch / total`).
    pub gflops: f64,
    /// The register-tile decision (packed path only).
    pub tile: Option<TileDecision>,
    /// The copy-path decision (packed path only; per-entry copies are
    /// serial — parallelism comes from the batch dimension).
    pub pack: Option<PackDecision>,
    /// `true` when operands widened from a narrow storage type on pack
    /// or load.
    pub widened: bool,
}

impl BatchRun {
    fn empty(path: BatchPath, batch: usize) -> BatchRun {
        BatchRun {
            path,
            batch,
            workers: 0,
            total: 0.0,
            gflops: 0.0,
            tile: None,
            pack: None,
            widened: false,
        }
    }
}

impl TunedGemm {
    /// Strided-batched GEMM `C_i ← α·op(A_i)·op(B_i) + β·C_i` over
    /// column-major slabs, with the default size-based path choice.
    ///
    /// # Errors
    /// Returns [`BatchError`] when the descriptor is inconsistent with
    /// the slab lengths (see [`GemmBatch::validate`]).
    #[allow(clippy::too_many_arguments)]
    pub fn gemm_batch<S>(
        &self,
        desc: &GemmBatch,
        alpha: S::Acc,
        a: &[S],
        b: &[S],
        beta: S::Acc,
        c: &mut [S],
        ws: &mut BatchWorkspace,
    ) -> Result<BatchRun, BatchError>
    where
        S: StorageScalar,
        S::Acc: WorkspaceScalar,
    {
        self.gemm_batch_with(desc, alpha, a, b, beta, c, ws, &BatchOptions::default())
    }

    /// [`TunedGemm::gemm_batch`] with explicit [`BatchOptions`].
    ///
    /// # Errors
    /// Returns [`BatchError`] when the descriptor is inconsistent with
    /// the slab lengths.
    #[allow(clippy::too_many_arguments)]
    pub fn gemm_batch_with<S>(
        &self,
        desc: &GemmBatch,
        alpha: S::Acc,
        a: &[S],
        b: &[S],
        beta: S::Acc,
        c: &mut [S],
        ws: &mut BatchWorkspace,
        opts: &BatchOptions,
    ) -> Result<BatchRun, BatchError>
    where
        S: StorageScalar,
        S::Acc: WorkspaceScalar,
    {
        let _span = clgemm_trace::span!("routine.gemm_batch");
        desc.validate(a.len(), b.len(), c.len())?;
        let (batch, m, n, k) = (desc.batch, desc.m, desc.n, desc.k);
        let reg = Registry::global();
        reg.histogram("routine_batch_size", 1.0)
            .observe(batch as u64);

        let (path, total) = self.route_batch(S::Acc::PRECISION, desc, opts);
        let mut run = BatchRun::empty(path, batch);
        if batch == 0 || m == 0 || n == 0 {
            return Ok(run);
        }
        // α = 0 zeroes the product term only over finite operands (see
        // `TunedGemm::gemm_with`).
        let finite = |slab: &[S]| slab.iter().all(|x| x.widen().is_finite());
        if k == 0 || (alpha == S::Acc::ZERO && finite(a) && finite(b)) {
            for centry in split_c_entries(c, desc) {
                scale_c(alpha, beta, ViewMut::new(centry, m, n, 1, desc.ldc));
            }
            return Ok(run);
        }

        reg.counter_labeled("routine_batch_path_total", &[("path", path.tag())])
            .inc();
        run.workers = worker_count(batch);
        run.total = total;
        run.gflops = if total > 0.0 {
            desc.flops() / total / 1e9
        } else {
            0.0
        };
        run.widened = S::WIDENS;
        let a_of = |i: usize| &a[desc.a_offset(i)..][..desc.a_extent()];
        let b_of = |i: usize| &b[desc.b_offset(i)..][..desc.b_extent()];
        let mut entries = split_c_entries(c, desc);
        match path {
            BatchPath::Direct => {
                let mut states = vec![(); run.workers];
                par_items_mut(&mut entries, &mut states, |i, centry, ()| {
                    direct_entry(desc, alpha, a_of(i), b_of(i), beta, centry);
                });
            }
            BatchPath::Packed => {
                // Per-entry copies are serial: parallelism comes from the
                // batch dimension.
                let mut plan = self.plan(S::Acc::PREC_TAG == 'D', desc.ty, m, n, k);
                plan.pack.serial = true;
                let ((ar, ac), (br, bc)) = (desc.a_dims(), desc.b_dims());
                let a_view = |i: usize| View::new(a_of(i), ar, ac, 1, desc.lda);
                let b_view = |i: usize| View::new(b_of(i), br, bc, 1, desc.ldb);
                // Shared operands are packed exactly once, into the shared
                // pool; per-entry operands pack inside the fan-out, into
                // worker pools.
                let (shared, worker_ws) = ws.parts(run.workers);
                let col_major = View::new(&entries[0][..], m, n, 1, desc.ldc).is_col_major();
                let ((wa, wb), (len_a, len_b)) = plan.panels(col_major);
                let (sa, sb) = shared.pool::<S::Acc>().buffers(
                    if desc.shared_a() { len_a } else { 0 },
                    if desc.shared_b() { len_b } else { 0 },
                );
                if desc.shared_a() {
                    pack_panels(a_view(0), plan.spec_a.trans, wa, sa, true);
                }
                if desc.shared_b() {
                    pack_panels(b_view(0), plan.spec_b.trans, wb, sb, true);
                }
                let (sa, sb): (&[S::Acc], &[S::Acc]) = (sa, sb);
                let (sa, sb) = (desc.shared_a().then_some(sa), desc.shared_b().then_some(sb));
                par_items_mut(&mut entries, worker_ws, |i, centry, w| {
                    let (a, b) = (a_view(i), b_view(i));
                    let c = ViewMut::new(centry, m, n, 1, desc.ldc);
                    run_packed(&plan, alpha, a, b, beta, c, sa, sb, w, false);
                });
                if S::WIDENS {
                    // One widening pack per shared operand, one per entry
                    // otherwise.
                    let packs = |shared: bool| if shared { 1 } else { batch as u64 };
                    Registry::global()
                        .counter("routine_convert_on_pack_total")
                        .add(packs(desc.shared_a()) + packs(desc.shared_b()));
                }
                run.tile = Some(plan.tile);
                run.pack = Some(plan.pack);
            }
        }
        Ok(run)
    }

    /// The path a batched call takes — `opts.force_path`, else the
    /// copy-free direct kernel when every edge is at most
    /// [`DIRECT_BATCH_MAX`] — and its modelled seconds. Execution and the
    /// serving layer's placement costs both read it. Both models depend
    /// only on the accumulation precision, so costing `f16`/`bf16`
    /// storage at `f32` is exact.
    #[must_use]
    pub fn route_batch(
        &self,
        precision: Precision,
        desc: &GemmBatch,
        opts: &BatchOptions,
    ) -> (BatchPath, f64) {
        let small = desc.m.max(desc.n).max(desc.k) <= DIRECT_BATCH_MAX;
        let path = opts.force_path.unwrap_or(if small {
            BatchPath::Direct
        } else {
            BatchPath::Packed
        });
        let seconds = match (path, precision) {
            (BatchPath::Direct, Precision::F64) => self.predict_batch_direct::<f64>(desc),
            (BatchPath::Direct, Precision::F32) => self.predict_batch_direct::<f32>(desc),
            (BatchPath::Packed, _) => self.predict_batch(precision == Precision::F64, desc),
        };
        (path, seconds)
    }

    /// Modelled seconds for a batch through the packed path: per-entry
    /// copies (shared operands once), kernel bodies back to back with one
    /// launch ([`estimate_batch_seconds`]).
    #[must_use]
    pub fn predict_batch(&self, double_precision: bool, desc: &GemmBatch) -> f64 {
        let (batch, m, n, k) = (desc.batch, desc.m, desc.n, desc.k);
        if batch == 0 || m == 0 || n == 0 || k == 0 {
            return 0.0;
        }
        let plan = self.plan(double_precision, desc.ty, m, n, k);
        let one = self.model(&plan);
        // A shared operand is packed once, any other once per entry.
        let packs = |shared: bool| if shared { 1.0 } else { batch as f64 };
        let (mp, np, kp) = (plan.da.width, plan.db.width, plan.da.k);
        let prof = launch_profile(&plan.p, self.device(), mp, np, kp);
        let kernel = estimate_batch_seconds(self.device(), &prof, batch).unwrap_or(f64::INFINITY);
        one.pack_a * packs(desc.shared_a())
            + one.pack_b * packs(desc.shared_b())
            + one.stage_c * batch as f64
            + kernel
    }

    /// Modelled seconds for a batch through the direct path: `batch`
    /// guarded in-place kernel bodies with one launch.
    #[must_use]
    pub fn predict_batch_direct<S: StorageScalar>(&self, desc: &GemmBatch) -> f64 {
        let (batch, m, n, k) = (desc.batch, desc.m, desc.n, desc.k);
        if batch == 0 || m == 0 || n == 0 || k == 0 {
            return 0.0;
        }
        let dp = crate::direct::DirectParams::default_for(desc.ty, <S::Acc as Scalar>::PRECISION);
        let prof = crate::direct::direct_profile(&dp, self.device(), m, n, k);
        estimate_batch_seconds(self.device(), &prof, batch).unwrap_or(f64::INFINITY)
    }
}

/// Split the `C` slab into one disjoint mutable sub-slice per entry.
/// Validation already rejected overlapping strides for `batch > 1`.
fn split_c_entries<'a, S>(c: &'a mut [S], desc: &GemmBatch) -> Vec<&'a mut [S]> {
    let extent = desc.c_extent();
    let mut rest = c;
    let mut out = Vec::with_capacity(desc.batch);
    for i in 0..desc.batch {
        let stride = if i + 1 < desc.batch {
            desc.stride_c
        } else {
            extent
        };
        let (head, tail) = std::mem::take(&mut rest).split_at_mut(stride);
        out.push(&mut head[..extent]);
        rest = tail;
    }
    out
}

/// One entry through the copy-free direct kernel: 4×4 register tiles of
/// independent per-cell accumulators over in-place column-major reads,
/// scalar fringe for ragged edges. Every cell's chain is the canonical
/// ascending-`p` FMA sequence, so tiling never changes numerics.
fn direct_entry<S: StorageScalar>(
    desc: &GemmBatch,
    alpha: S::Acc,
    a: &[S],
    b: &[S],
    beta: S::Acc,
    c: &mut [S],
) {
    match (desc.ty.ta, desc.ty.tb) {
        (Trans::No, Trans::No) => direct_kernel::<S, false, false>(desc, alpha, a, b, beta, c),
        (Trans::No, Trans::Yes) => direct_kernel::<S, false, true>(desc, alpha, a, b, beta, c),
        (Trans::Yes, Trans::No) => direct_kernel::<S, true, false>(desc, alpha, a, b, beta, c),
        (Trans::Yes, Trans::Yes) => direct_kernel::<S, true, true>(desc, alpha, a, b, beta, c),
    }
}

/// The tiled kernel body, monomorphised per transpose pair so the inner
/// loop indexing is branch-free.
fn direct_kernel<S: StorageScalar, const TA: bool, const TB: bool>(
    desc: &GemmBatch,
    alpha: S::Acc,
    a: &[S],
    b: &[S],
    beta: S::Acc,
    c: &mut [S],
) {
    // The register tile is sized for the SIMD units the build targets
    // (`target-cpu=native`): sixteen rows is one f32 AVX-512 vector (two
    // AVX2 vectors, four NEON), and eight columns keeps the accumulator
    // file inside the register budget for both f32 and f64 accumulation.
    // Each accumulator lane is still one C element's ascending-p
    // `mul_add` chain, so the result is bit-identical to the scalar
    // reference — vectorisation happens *across* C elements, never
    // inside one reduction.
    const MR: usize = 16;
    const NR: usize = 8;
    let (m, n, k) = (desc.m, desc.n, desc.k);
    let (lda, ldb, ldc) = (desc.lda, desc.ldb, desc.ldc);
    // op(A)[i][p] / op(B)[p][j] against column-major storage.
    let at = |i: usize, p: usize| -> S::Acc {
        if TA {
            a[i * lda + p].widen()
        } else {
            a[p * lda + i].widen()
        }
    };
    let bt = |p: usize, j: usize| -> S::Acc {
        if TB {
            b[p * ldb + j].widen()
        } else {
            b[j * ldb + p].widen()
        }
    };

    let mut j0 = 0;
    while j0 < n {
        let nr = NR.min(n - j0);
        let mut i0 = 0;
        while i0 < m {
            let mr = MR.min(m - i0);
            if mr == MR && nr == NR {
                // acc[bj] holds C[i0..i0+MR, j0+bj]: the inner loops run
                // over a contiguous 16-lane row strip, which LLVM lifts
                // to vector FMAs.
                let mut acc = [[S::Acc::ZERO; MR]; NR];
                for p in 0..k {
                    let mut av = [S::Acc::ZERO; MR];
                    if TA {
                        for (mi, v) in av.iter_mut().enumerate() {
                            *v = a[(i0 + mi) * lda + p].widen();
                        }
                    } else {
                        // Untransposed A: one contiguous column slice,
                        // a single (pair of) vector load(s).
                        let col = &a[p * lda + i0..p * lda + i0 + MR];
                        for (mi, v) in av.iter_mut().enumerate() {
                            *v = col[mi].widen();
                        }
                    }
                    for (bj, arow) in acc.iter_mut().enumerate() {
                        let bv = bt(p, j0 + bj);
                        for (mi, cell) in arow.iter_mut().enumerate() {
                            *cell = av[mi].mul_add(bv, *cell);
                        }
                    }
                }
                for (bj, arow) in acc.iter().enumerate() {
                    let base = (j0 + bj) * ldc + i0;
                    for (mi, &val) in arow.iter().enumerate() {
                        let old = c[base + mi].widen();
                        c[base + mi] = S::narrow(alpha.mul_add(val, beta * old));
                    }
                }
            } else {
                for jj in 0..nr {
                    for ii in 0..mr {
                        let mut acc = S::Acc::ZERO;
                        for p in 0..k {
                            acc = at(i0 + ii, p).mul_add(bt(p, j0 + jj), acc);
                        }
                        let idx = (j0 + jj) * ldc + i0 + ii;
                        let old = c[idx].widen();
                        c[idx] = S::narrow(alpha.mul_add(acc, beta * old));
                    }
                }
            }
            i0 += MR;
        }
        j0 += NR;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::small_test_params;
    use crate::routine::SERIAL_PACK_MAX;
    use clgemm_blas::matrix::{Matrix, StorageOrder};
    use clgemm_blas::scalar::{Precision, F16};
    use clgemm_blas::GemmType;
    use clgemm_device::DeviceId;

    fn tuned() -> TunedGemm {
        TunedGemm::new(
            DeviceId::Tahiti.spec(),
            small_test_params(Precision::F64),
            small_test_params(Precision::F32),
        )
    }

    /// Deterministic nonzero slab contents (avoiding exact zeros keeps
    /// signed-zero corner cases out of the bit-equality assertions).
    fn fill<S: StorageScalar>(slab: &mut [S], seed: usize) {
        for (idx, cell) in slab.iter_mut().enumerate() {
            let v = ((idx * 7 + seed * 13) % 23) as f64 * 0.125 - 1.0;
            *cell = S::from_f64(if v == 0.0 { 0.375 } else { v });
        }
    }

    /// Widen one column-major slab entry into an accumulator matrix.
    fn entry_matrix<S: StorageScalar>(
        slab: &[S],
        off: usize,
        rows: usize,
        cols: usize,
        ld: usize,
    ) -> Matrix<S::Acc> {
        Matrix::from_fn(rows, cols, StorageOrder::ColMajor, |i, j| {
            slab[off + j * ld + i].widen()
        })
    }

    /// Oracle: loop of single-GEMM calls on widened entries, narrowed on
    /// the way out. `gemm_batch` must match it bit for bit.
    fn check_against_looped_single<S>(desc: &GemmBatch, opts: &BatchOptions)
    where
        S: StorageScalar,
        S::Acc: WorkspaceScalar,
    {
        let tg = tuned();
        let (ar, ac) = desc.a_dims();
        let (br, bc) = desc.b_dims();
        let mut a = vec![S::default(); required_len(desc.batch, desc.stride_a, desc.a_extent())];
        let mut b = vec![S::default(); required_len(desc.batch, desc.stride_b, desc.b_extent())];
        let mut c = vec![S::default(); desc.c_required()];
        fill(&mut a, 1);
        fill(&mut b, 2);
        fill(&mut c, 3);
        let c0 = c.clone();
        let alpha = <S::Acc as Scalar>::from_f64(1.25);
        let beta = <S::Acc as Scalar>::from_f64(-0.5);

        let mut ws = BatchWorkspace::new();
        let run = tg
            .gemm_batch_with(desc, alpha, &a, &b, beta, &mut c, &mut ws, opts)
            .unwrap();
        assert_eq!(run.batch, desc.batch);

        for i in 0..desc.batch {
            let am = entry_matrix(&a, desc.a_offset(i), ar, ac, desc.lda);
            let bm = entry_matrix(&b, desc.b_offset(i), br, bc, desc.ldb);
            let mut cm = entry_matrix(&c0, desc.c_offset(i), desc.m, desc.n, desc.ldc);
            tg.gemm(desc.ty, alpha, &am, &bm, beta, &mut cm);
            for j in 0..desc.n {
                for r in 0..desc.m {
                    let got = c[desc.c_offset(i) + j * desc.ldc + r];
                    let want = S::narrow(cm.at(r, j));
                    assert_eq!(
                        got, want,
                        "{desc} entry {i} ({r},{j}) {} diverges from looped single",
                        run.path
                    );
                }
            }
        }
    }

    fn required_len(batch: usize, stride: usize, extent: usize) -> usize {
        if batch == 0 || extent == 0 {
            0
        } else {
            stride * (batch - 1) + extent
        }
    }

    #[test]
    fn direct_path_matches_looped_single_for_all_types() {
        for ty in GemmType::ALL {
            let desc = GemmBatch::packed(ty, 4, 10, 8, 6);
            check_against_looped_single::<f64>(&desc, &BatchOptions::default());
        }
    }

    #[test]
    fn packed_path_matches_looped_single_for_all_types() {
        let opts = BatchOptions {
            force_path: Some(BatchPath::Packed),
        };
        for ty in GemmType::ALL {
            let desc = GemmBatch::packed(ty, 3, 10, 8, 6);
            check_against_looped_single::<f32>(&desc, &opts);
        }
    }

    #[test]
    fn half_storage_matches_widened_oracle_on_both_paths() {
        for force in [None, Some(BatchPath::Packed)] {
            let desc = GemmBatch::packed(GemmType::NN, 5, 9, 7, 11);
            check_against_looped_single::<F16>(&desc, &BatchOptions { force_path: force });
        }
    }

    #[test]
    fn shared_operands_and_padded_strides_work() {
        let mut desc = GemmBatch::packed(GemmType::NN, 6, 8, 8, 8).with_shared_a();
        desc.ldc = 11;
        desc.stride_c = 11 * 8 + 3;
        check_against_looped_single::<f64>(&desc, &BatchOptions::default());
        let desc = GemmBatch::packed(GemmType::NT, 4, 8, 8, 8).with_shared_b();
        check_against_looped_single::<f32>(
            &desc,
            &BatchOptions {
                force_path: Some(BatchPath::Packed),
            },
        );
    }

    #[test]
    fn batch_workspace_reaches_steady_state() {
        let tg = tuned();
        let desc = GemmBatch::packed(GemmType::NN, 8, 16, 16, 16);
        let mut a = vec![0f32; 8 * 16 * 16];
        let mut b = vec![0f32; 8 * 16 * 16];
        let mut c = vec![0f32; 8 * 16 * 16];
        fill(&mut a, 1);
        fill(&mut b, 2);
        fill(&mut c, 3);
        let mut ws = BatchWorkspace::new();
        let opts = BatchOptions {
            force_path: Some(BatchPath::Packed),
        };
        tg.gemm_batch_with(&desc, 1.0, &a, &b, 0.5, &mut c, &mut ws, &opts)
            .unwrap();
        let grows = ws.grows();
        assert!(grows > 0, "first packed batch must allocate staging");
        for _ in 0..3 {
            tg.gemm_batch_with(&desc, 1.0, &a, &b, 0.5, &mut c, &mut ws, &opts)
                .unwrap();
        }
        assert_eq!(ws.grows(), grows, "steady state must not reallocate");

        // The direct path never touches the workspace at all.
        let mut ws2 = BatchWorkspace::new();
        let run = tg
            .gemm_batch(&desc, 1.0f32, &a, &b, 0.5, &mut c, &mut ws2)
            .unwrap();
        assert_eq!(run.path, BatchPath::Direct);
        assert_eq!(ws2.grows(), 0);
    }

    #[test]
    fn size_routes_the_path_and_descriptor_is_validated() {
        let tg = tuned();
        let mut ws = BatchWorkspace::new();
        // The threshold edge sits on the direct side; one past it in any
        // dimension flips it.
        let e = DIRECT_BATCH_MAX;
        let small = GemmBatch::packed(GemmType::NN, 1, e, e, e);
        let n = e * e;
        let mut a = vec![0f32; n];
        let mut b = vec![0f32; n];
        let mut c = vec![0f32; n];
        fill(&mut a, 1);
        fill(&mut b, 2);
        fill(&mut c, 3);
        let run = tg
            .gemm_batch(&small, 1.0f32, &a, &b, 0.0, &mut c, &mut ws)
            .unwrap();
        assert_eq!(run.path, BatchPath::Direct);
        assert!(run.total > 0.0 && run.gflops > 0.0);
        assert_eq!(run.tile, None);

        let over = DIRECT_BATCH_MAX + 1;
        let big = GemmBatch::packed(GemmType::NN, 1, over, 16, 16);
        let mut a = vec![0f32; over * 16];
        let b = vec![0f32; 16 * 16];
        let mut cc = vec![0f32; over * 16];
        fill(&mut a, 1);
        fill(&mut cc, 3);
        let run = tg
            .gemm_batch(&big, 1.0f32, &a, &b, 0.0, &mut cc, &mut ws)
            .unwrap();
        assert_eq!(run.path, BatchPath::Packed);
        assert!(run.tile.is_some());
        assert_eq!(run.pack.unwrap().threshold, SERIAL_PACK_MAX);

        // Short slabs are rejected, not UB.
        let bad = GemmBatch::packed(GemmType::NN, 2, e, e, e);
        assert!(tg
            .gemm_batch(&bad, 1.0f32, &a, &b, 0.0, &mut c, &mut ws)
            .is_err());
    }

    #[test]
    fn degenerate_batches_follow_blas_semantics() {
        let tg = tuned();
        let mut ws = BatchWorkspace::new();
        // batch == 0 and m == 0 touch nothing.
        for desc in [
            GemmBatch::packed(GemmType::NN, 0, 4, 4, 4),
            GemmBatch::packed(GemmType::NN, 3, 0, 4, 4),
            GemmBatch::packed(GemmType::NN, 3, 4, 0, 4),
        ] {
            let run = tg
                .gemm_batch::<f64>(&desc, 1.0, &[], &[], 0.5, &mut [], &mut ws)
                .unwrap();
            assert_eq!(run.total, 0.0);
            assert_eq!(ws.grows(), 0);
        }
        // k == 0 scales C by beta through the kernel's merge arithmetic.
        let desc = GemmBatch::packed(GemmType::NN, 2, 3, 3, 0);
        let mut c: Vec<f64> = (0..18).map(|i| i as f64 + 1.0).collect();
        let c0 = c.clone();
        tg.gemm_batch::<f64>(&desc, 2.0, &[], &[], -0.5, &mut c, &mut ws)
            .unwrap();
        for (got, want) in c.iter().zip(c0.iter().map(|v| -0.5 * v)) {
            assert_eq!(*got, want);
        }
    }

    #[test]
    fn batched_metrics_are_recorded() {
        let tg = tuned();
        let reg = Registry::global();
        let before_direct = reg
            .counter_labeled("routine_batch_path_total", &[("path", "direct")])
            .get();
        let before_convert = reg.counter("routine_convert_on_pack_total").get();
        let hist_before = reg.histogram("routine_batch_size", 1.0).count();

        let desc = GemmBatch::packed(GemmType::NN, 3, 8, 8, 8);
        let mut a = vec![F16::default(); 3 * 64];
        let mut b = vec![F16::default(); 3 * 64];
        let mut c = vec![F16::default(); 3 * 64];
        fill(&mut a, 1);
        fill(&mut b, 2);
        fill(&mut c, 3);
        let mut ws = BatchWorkspace::new();
        tg.gemm_batch(&desc, 1.0f32, &a, &b, 0.0, &mut c, &mut ws)
            .unwrap();
        tg.gemm_batch_with(
            &desc,
            1.0f32,
            &a,
            &b,
            0.0,
            &mut c,
            &mut ws,
            &BatchOptions {
                force_path: Some(BatchPath::Packed),
            },
        )
        .unwrap();

        assert!(
            reg.counter_labeled("routine_batch_path_total", &[("path", "direct")])
                .get()
                > before_direct
        );
        assert!(
            reg.counter("routine_convert_on_pack_total").get() >= before_convert + 6,
            "three entries × two operands widened on pack"
        );
        assert!(reg.histogram("routine_batch_size", 1.0).count() >= hist_before + 2);
    }
}
