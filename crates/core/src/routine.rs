//! The tuned GEMM routine layer (§III-D, §IV-B).
//!
//! The paper's strategy: implement every GEMM type through the single
//! fast `C ← α·Aᵀ·B + β·C` kernel by first *copying* each operand into a
//! zero-padded staging buffer in the tuned block-major layout (with a
//! transposition where the type requires it), running the kernel, and
//! merging the padded result back. The copy is `O(N²)`, the kernel
//! `O(N³)` — so the routine is slow for small matrices and amortised for
//! large ones, which Figs. 9–11 show as the crossover against vendor
//! libraries.
//!
//! [`TunedGemm`] bundles a device with one tuned parameter set per
//! precision and provides:
//!
//! * [`TunedGemm::gemm`] — functional column-major GEMM (all four
//!   NN/NT/TN/TT types) executed natively, returning both the result and
//!   a [`GemmRun`] with the modelled time breakdown;
//! * [`TunedGemm::predict`] — the time/GFlop/s model alone (used by the
//!   figure-regeneration harness where only performance matters);
//! * [`TunedGemm::kernel_gflops`] — bare-kernel performance without copy
//!   overhead (the Fig. 7 quantity).

use crate::executor::{panel_widths, run_microkernel, run_native};
use crate::params::KernelParams;
use crate::profile::launch_profile;
use crate::tile::TileDecision;
use clgemm_blas::layout::{round_up, PackedDims};
use clgemm_blas::matrix::Matrix;
use clgemm_blas::pack::{merge_c, pack_into, pack_panels, stage_c, PackSpec, View, ViewMut};
use clgemm_blas::scalar::{Precision, Scalar, StorageScalar};
use clgemm_blas::workspace::{Workspace, WorkspaceScalar};
use clgemm_blas::{GemmType, Trans};
use clgemm_device::{estimate, DeviceSpec};
use clgemm_sim::{copy_time, pack_time};
use clgemm_trace::{Counter, Histogram, Registry};
use std::sync::{Arc, OnceLock};

/// Global-registry handles for the routine layer, resolved once so the
/// per-call cost is a few relaxed atomic RMWs (no map lookups on the
/// GEMM hot path). The phase histograms record the *modelled* splits
/// the `GemmRun` already carries — previously bespoke fields read by
/// nobody, now exported as distributions next to every other layer's
/// metrics; wall time is covered by the `routine.*` spans.
struct RoutineMetrics {
    gemms: Arc<Counter>,
    pack_a: Arc<Histogram>,
    pack_b: Arc<Histogram>,
    stage_c: Arc<Histogram>,
    kernel: Arc<Histogram>,
    total: Arc<Histogram>,
}

impl RoutineMetrics {
    fn get() -> &'static RoutineMetrics {
        static METRICS: OnceLock<RoutineMetrics> = OnceLock::new();
        METRICS.get_or_init(|| {
            let r = Registry::global();
            RoutineMetrics {
                gemms: r.counter("routine_gemm_total"),
                pack_a: r.histogram("routine_pack_a_seconds", 1e-9),
                pack_b: r.histogram("routine_pack_b_seconds", 1e-9),
                stage_c: r.histogram("routine_stage_c_seconds", 1e-9),
                kernel: r.histogram("routine_kernel_seconds", 1e-9),
                total: r.histogram("routine_total_seconds", 1e-9),
            }
        })
    }
}

/// Problems whose `m`, `n` and `k` are all at or below this pack their
/// panels serially: handing half of the panels to a `shim::par` pool
/// worker (a lock, a condvar wake-up and a wait for the worker) costs
/// more than it saves until the copies grow past ~128². Measured for
/// `pack_panels` on the pool, both operands of an f32 call with a
/// column-major `C`, median of 200 interleaved runs on a 2-core host:
/// serial against pooled took 2.7 against 4.5 µs at 32³, 10.0 against
/// 13.6 µs at 64³, 40.8 against 51.6 µs at 128³, and 84.7 against
/// 75.4 µs at 192³.
pub const SERIAL_PACK_MAX: usize = 128;

/// How the fast path packed: serially up to [`SERIAL_PACK_MAX`], split
/// across the `shim::par` pool above it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackDecision {
    /// `true` when the serial copiers ran.
    pub serial: bool,
    /// The edge threshold the decision compared against.
    pub threshold: usize,
}

/// Timing breakdown of one routine invocation (modelled seconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GemmRun {
    /// Packing time for A (copy + optional transpose + layout change).
    pub pack_a: f64,
    /// Packing time for B.
    pub pack_b: f64,
    /// Staging C in and merging it back out.
    pub stage_c: f64,
    /// The `AᵀB` kernel itself.
    pub kernel: f64,
    /// Total routine time.
    pub total: f64,
    /// Effective routine GFlop/s (`2MNK / total`).
    pub gflops: f64,
    /// Bare-kernel GFlop/s (`2MNK / kernel`).
    pub kernel_gflops: f64,
    /// The host register-tile decision for the fast path: the tuned
    /// blocking next to the tile that executed. `None` when no fast
    /// microkernel ran (reference engine, direct path, degenerate
    /// shapes).
    pub tile: Option<TileDecision>,
    /// Whether the fast path copied data serially or in parallel, and
    /// the threshold it compared against. `None` when no fast-path
    /// copies ran (reference engine, direct path, degenerate shapes).
    pub pack: Option<PackDecision>,
}

impl GemmRun {
    /// The run record for a degenerate problem (`m`, `n` or `k` zero):
    /// nothing was packed or launched, so every field is zero. Callers
    /// used to receive a model prediction on clamped dimensions here,
    /// which fabricated timings for work that never happened.
    #[must_use]
    pub fn empty() -> GemmRun {
        GemmRun {
            pack_a: 0.0,
            pack_b: 0.0,
            stage_c: 0.0,
            kernel: 0.0,
            total: 0.0,
            gflops: 0.0,
            kernel_gflops: 0.0,
            tile: None,
            pack: None,
        }
    }
}

/// Which host data path executes the routine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HostEngine {
    /// Panel microkernel + parallel packing + workspace reuse. Produces
    /// bit-for-bit the same `C` as [`HostEngine::Reference`] (the
    /// property tests pin this), just faster.
    #[default]
    Fast,
    /// The original serial pack/stage/[`run_native`]/merge pipeline with
    /// fresh allocations. Kept as the oracle the fast engine is verified
    /// against, mirroring `ExecOptions::reference()` in the clc VM.
    Reference,
}

/// Options controlling [`TunedGemm::gemm_with`].
#[derive(Debug, Clone, Copy, Default)]
pub struct GemmOptions {
    /// The host data path to use.
    pub engine: HostEngine,
}

impl GemmOptions {
    /// The known-good oracle configuration.
    #[must_use]
    pub fn reference() -> GemmOptions {
        GemmOptions {
            engine: HostEngine::Reference,
        }
    }
}

/// A device plus tuned kernels for both precisions.
#[derive(Debug, Clone)]
pub struct TunedGemm {
    device: DeviceSpec,
    dgemm: KernelParams,
    sgemm: KernelParams,
}

impl TunedGemm {
    /// Bundle explicitly chosen parameter sets.
    ///
    /// # Panics
    /// Panics if a parameter set is invalid or has the wrong precision.
    #[must_use]
    pub fn new(device: DeviceSpec, dgemm: KernelParams, sgemm: KernelParams) -> TunedGemm {
        assert_eq!(dgemm.precision, Precision::F64, "dgemm params must be F64");
        assert_eq!(sgemm.precision, Precision::F32, "sgemm params must be F32");
        dgemm.validate().expect("invalid DGEMM params");
        sgemm.validate().expect("invalid SGEMM params");
        TunedGemm {
            device,
            dgemm,
            sgemm,
        }
    }

    /// Tune both precisions with the given space/options and bundle the
    /// winners.
    #[must_use]
    pub fn tune(
        device: &DeviceSpec,
        space: &crate::tuner::SearchSpace,
        opts: &crate::tuner::SearchOpts,
    ) -> TunedGemm {
        let d = crate::tuner::tune(device, Precision::F64, space, opts);
        let s = crate::tuner::tune(device, Precision::F32, space, opts);
        TunedGemm {
            device: device.clone(),
            dgemm: d.best.params,
            sgemm: s.best.params,
        }
    }

    /// The device this instance targets.
    #[must_use]
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// The tuned parameters for a precision.
    #[must_use]
    pub fn params(&self, precision: Precision) -> &KernelParams {
        match precision {
            Precision::F64 => &self.dgemm,
            Precision::F32 => &self.sgemm,
        }
    }

    /// Full column-major GEMM `C ← α·op(A)·op(B) + β·C`, executed
    /// natively with generated-kernel numerics, with modelled timing.
    ///
    /// Convenience wrapper over [`TunedGemm::gemm_with`] using a
    /// throwaway [`Workspace`] and the default (fast) engine. Callers on
    /// a hot path should hold their own workspace to avoid per-call
    /// staging allocations.
    ///
    /// # Panics
    /// Panics on inconsistent operand shapes (BLAS argument errors).
    pub fn gemm<T: WorkspaceScalar>(
        &self,
        ty: GemmType,
        alpha: T,
        a: &Matrix<T>,
        b: &Matrix<T>,
        beta: T,
        c: &mut Matrix<T>,
    ) -> GemmRun {
        let mut ws = Workspace::new();
        self.gemm_with(ty, alpha, a, b, beta, c, &mut ws, &GemmOptions::default())
    }

    /// [`TunedGemm::gemm`] with an explicit staging [`Workspace`] and
    /// engine selection.
    ///
    /// The workspace is a grow-only buffer pool: a steady-state caller
    /// (same shape bucket repeatedly, the serving case) performs zero
    /// staging allocations after the first call. Both engines produce
    /// bit-for-bit identical `C`; [`GemmOptions::reference`] selects the
    /// original serial pipeline as a cross-check oracle.
    ///
    /// Degenerate shapes follow BLAS semantics without fabricating model
    /// timings: `m == 0 || n == 0` touches nothing, `k == 0` computes
    /// `C ← β·C`; both return [`GemmRun::empty`].
    ///
    /// # Panics
    /// Panics on inconsistent operand shapes (BLAS argument errors).
    #[allow(clippy::too_many_arguments)]
    pub fn gemm_with<T: WorkspaceScalar>(
        &self,
        ty: GemmType,
        alpha: T,
        a: &Matrix<T>,
        b: &Matrix<T>,
        beta: T,
        c: &mut Matrix<T>,
        ws: &mut Workspace,
        opts: &GemmOptions,
    ) -> GemmRun {
        let _span = clgemm_trace::span!("routine.gemm");
        let (m, n, k) = clgemm_blas::gemm_ref::check_shapes(ty, a, b, c);
        if m == 0 || n == 0 {
            return GemmRun::empty();
        }
        // An empty product (k = 0) leaves C ← β·C. So does α = 0 over
        // finite operands, which the fast engine short-circuits instead
        // of packing both operands for nothing; a NaN or infinity in A or
        // B makes the product term NaN even at α = 0, so those run the
        // full pipeline. The reference engine always does, as the oracle.
        let zero_product = || alpha == T::ZERO && a.all_finite() && b.all_finite();
        if k == 0 || (opts.engine == HostEngine::Fast && zero_product()) {
            scale_c(alpha, beta, c.view_mut());
            return GemmRun::empty();
        }
        let plan = self.plan(T::PREC_TAG == 'D', ty, m, n, k);
        let mut run = self.model(&plan);
        match opts.engine {
            HostEngine::Fast => {
                let (a, b, c) = (a.view(), b.view(), c.view_mut());
                run_packed(&plan, alpha, a, b, beta, c, None, None, ws, true);
            }
            HostEngine::Reference => {
                // The reference engine runs untiled with serial copies
                // and stays the oracle: it reports no decisions.
                run.tile = None;
                run.pack = None;
                let (p, da, db) = (&plan.p, plan.da, plan.db);
                let (mp, np, kp, la, lb) = (da.width, db.width, da.k, p.layout_a, p.layout_b);
                let mut pa = vec![T::ZERO; da.len()];
                let mut pb = vec![T::ZERO; db.len()];
                pack_into(a, plan.spec_a, k, m, &mut pa, da);
                pack_into(b, plan.spec_b, k, n, &mut pb, db);
                let mut staged = stage_c(c, p.mwg, p.nwg);
                run_native(
                    mp,
                    np,
                    kp,
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
                merge_c(&staged, p.mwg, p.nwg, c);
            }
        }
        let metrics = RoutineMetrics::get();
        metrics.gemms.inc();
        metrics.pack_a.observe_value(run.pack_a);
        metrics.pack_b.observe_value(run.pack_b);
        metrics.stage_c.observe_value(run.stage_c);
        metrics.kernel.observe_value(run.kernel);
        metrics.total.observe_value(run.total);
        run
    }

    /// The routine-time model for a problem, without executing anything.
    #[must_use]
    pub fn predict(
        &self,
        double_precision: bool,
        ty: GemmType,
        m: usize,
        n: usize,
        k: usize,
    ) -> GemmRun {
        self.model(&self.plan(double_precision, ty, m, n, k))
    }

    /// The routine-time model for a planned problem.
    pub(crate) fn model(&self, plan: &PackedPlan) -> GemmRun {
        let (p, m, n, k) = (&plan.p, plan.m, plan.n, plan.k);
        let (mp, np, kp) = (plan.da.width, plan.db.width, plan.da.k);
        let e = p.elem_bytes();

        // Packing reads op(X) transposed when the pack transposes.
        let pack = |width, wp, spec: PackSpec| {
            pack_time(&self.device, k, width, kp, wp, e, spec.trans == Trans::Yes).seconds
        };
        let (pack_a, pack_b) = (pack(m, mp, plan.spec_a), pack(n, np, plan.spec_b));
        // C staged in and merged out (strided against the column-major
        // user matrix), plus the routine's fixed API overhead: separate
        // enqueues for two packs, the kernel, the merge, and a final
        // synchronisation.
        let stage_c = 2.0 * copy_time(&self.device, m * n * e, mp * np * e, 0.30).seconds
            + 6.0 * self.device.micro.launch_overhead_us * 1e-6;

        let prof = launch_profile(p, &self.device, mp, np, kp);
        let kernel = match estimate(&self.device, &prof) {
            Ok(est) => est.seconds,
            // A tuned kernel always launches on its own device; this arm
            // only triggers for hand-built mismatched bundles.
            Err(_) => f64::INFINITY,
        };

        let total = pack_a + pack_b + stage_c + kernel;
        let flops = 2.0 * m as f64 * n as f64 * k as f64;
        GemmRun {
            pack_a,
            pack_b,
            stage_c,
            kernel,
            total,
            gflops: flops / total / 1e9,
            kernel_gflops: flops / kernel / 1e9,
            tile: Some(plan.tile),
            pack: Some(plan.pack),
        }
    }

    /// The packed plan of one problem at one precision.
    pub(crate) fn plan(
        &self,
        double_precision: bool,
        ty: GemmType,
        m: usize,
        n: usize,
        k: usize,
    ) -> PackedPlan {
        let p = if double_precision {
            self.dgemm
        } else {
            self.sgemm
        };
        // Layout blocks are Kwg deep, but the depth is padded to the
        // algorithm's K granularity (2·Kwg for DB).
        let kp = round_up(k, p.k_multiple());
        let dims = |width: usize, wwg: usize| {
            PackedDims::new(kp, round_up(width, wwg), wwg, p.kwg)
                .expect("padded dims divide the blocking")
        };
        let (da, db) = (dims(m, p.mwg), dims(n, p.nwg));
        let spec = |trans, layout, wwg| PackSpec {
            trans,
            layout,
            wwg,
            kwg: p.kwg,
        };
        PackedPlan {
            p,
            m,
            n,
            k,
            // The kernel consumes op(A) depth-first: packed A[p][i] =
            // op(A)[i][p], so the pack transpose is the *flip* of the
            // caller's op for A and the op itself for B.
            spec_a: spec(ty.ta.flipped(), p.layout_a, p.mwg),
            spec_b: spec(ty.tb, p.layout_b, p.nwg),
            da,
            db,
            tile: TileDecision::new(p.precision, (p.mwi(), p.nwi())),
            // Below the threshold the pool hand-off saves too little.
            pack: PackDecision {
                serial: m.max(n).max(k) <= SERIAL_PACK_MAX,
                threshold: SERIAL_PACK_MAX,
            },
        }
    }

    /// Bare tuned-kernel GFlop/s at a square padded size (Fig. 7).
    #[must_use]
    pub fn kernel_gflops(&self, precision: Precision, n: usize) -> Option<f64> {
        let p = self.params(precision);
        crate::tuner::search::measure_gflops(p, &self.device, round_up(n, p.lcm_block()))
    }
}

/// What the packed pipeline works out from one parameter set and one
/// problem shape, in one place: execution, [`TunedGemm::predict`] and
/// [`TunedGemm::predict_batch`] all read it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PackedPlan {
    pub(crate) p: KernelParams,
    pub(crate) m: usize,
    pub(crate) n: usize,
    pub(crate) k: usize,
    pub(crate) spec_a: PackSpec,
    pub(crate) spec_b: PackSpec,
    pub(crate) da: PackedDims,
    pub(crate) db: PackedDims,
    pub(crate) tile: TileDecision,
    pub(crate) pack: PackDecision,
}

impl PackedPlan {
    /// The microkernel panel widths of `op(A)` and `op(B)` for a `C`
    /// with contiguous columns (`col_major`) or rows, and the packed
    /// lengths they give.
    pub(crate) fn panels(&self, col_major: bool) -> ((usize, usize), (usize, usize)) {
        let (wa, wb) = panel_widths(self.p.precision, col_major);
        let len = |width: usize, w: usize| self.k * round_up(width, w);
        ((wa, wb), (len(self.m, wa), len(self.n, wb)))
    }
}

/// One packed GEMM entry — the pipeline a single fast call and every
/// entry of a packed batch run: pack `op(A)` and `op(B)` into microkernel
/// panels (unless `packed_a` or `packed_b` holds one already packed),
/// then run the microkernel, which applies `α·acc + β·C` straight to the
/// caller's `C`. Packing runs serially or over `shim::par` as
/// `plan.pack` says. `phase_spans` records the routine's per-phase
/// spans, which only single calls do: a batch records one span for the
/// whole call.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_packed<S>(
    plan: &PackedPlan,
    alpha: S::Acc,
    a: View<'_, S>,
    b: View<'_, S>,
    beta: S::Acc,
    c: ViewMut<'_, S>,
    packed_a: Option<&[S::Acc]>,
    packed_b: Option<&[S::Acc]>,
    ws: &mut Workspace,
    phase_spans: bool,
) where
    S: StorageScalar,
    S::Acc: WorkspaceScalar,
{
    let span = |name| phase_spans.then(|| clgemm_trace::span!(name));
    let serial = plan.pack.serial;
    let ((wa, wb), (len_a, len_b)) = plan.panels(c.is_col_major());
    let (pa, pb) = ws.pool::<S::Acc>().buffers(
        if packed_a.is_some() { 0 } else { len_a },
        if packed_b.is_some() { 0 } else { len_b },
    );
    let pa: &[S::Acc] = match packed_a {
        Some(packed) => packed,
        None => {
            let _g = span("routine.pack_a");
            pack_panels(a, plan.spec_a.trans, wa, pa, serial);
            pa
        }
    };
    let pb: &[S::Acc] = match packed_b {
        Some(packed) => packed,
        None => {
            let _g = span("routine.pack_b");
            pack_panels(b, plan.spec_b.trans, wb, pb, serial);
            pb
        }
    };
    let _g = span("routine.kernel");
    // The reference engine runs the depth padded to the tuned blocking.
    let pad_depth = plan.da.k > plan.k;
    run_microkernel(plan.k, alpha, pa, pb, beta, c, pad_depth);
}

/// `C ← β·C` for a product term that is an empty (`k = 0`) or zeroed
/// (`α = 0` over finite operands) sum. The update is the kernel's own
/// merge arithmetic (`α·acc + β·old` with `acc = 0`), so the result —
/// including NaN propagation from a non-finite α — matches the full
/// pipeline bit for bit, up to the sign of exact zeros when α = 0.
pub(crate) fn scale_c<S: StorageScalar>(alpha: S::Acc, beta: S::Acc, mut c: ViewMut<'_, S>) {
    let zero = <S::Acc as Scalar>::ZERO;
    c.update(|old| S::narrow(alpha.mul_add(zero, beta * old.widen())));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{small_test_params, tahiti_dgemm_best};
    use clgemm_blas::error::{compare, gemm_tolerance};
    use clgemm_blas::gemm_ref::gemm_parallel;
    use clgemm_blas::matrix::StorageOrder;
    use clgemm_device::DeviceId;

    fn small_tuned() -> TunedGemm {
        TunedGemm::new(
            DeviceId::Tahiti.spec(),
            small_test_params(Precision::F64),
            small_test_params(Precision::F32),
        )
    }

    fn check_type<T: WorkspaceScalar>(tg: &TunedGemm, ty: GemmType, m: usize, n: usize, k: usize) {
        let (ar, ac) = match ty.ta {
            Trans::No => (m, k),
            Trans::Yes => (k, m),
        };
        let (br, bc) = match ty.tb {
            Trans::No => (k, n),
            Trans::Yes => (n, k),
        };
        let a = Matrix::<T>::test_pattern(ar, ac, StorageOrder::ColMajor, 1);
        let b = Matrix::<T>::test_pattern(br, bc, StorageOrder::ColMajor, 2);
        let c0 = Matrix::<T>::test_pattern(m, n, StorageOrder::ColMajor, 3);
        let alpha = T::from_f64(1.25);
        let beta = T::from_f64(-0.75);

        let mut c_tuned = c0.clone();
        let run = tg.gemm(ty, alpha, &a, &b, beta, &mut c_tuned);
        assert!(run.total > 0.0 && run.gflops > 0.0);

        let mut c_ref = c0.clone();
        gemm_parallel(ty, alpha, &a, &b, beta, &mut c_ref);
        let rep = compare(&c_tuned, &c_ref);
        let tol = gemm_tolerance::<T>(k);
        assert!(
            rep.passes(tol),
            "{ty} {m}x{n}x{k}: max rel err {} > tol {tol}",
            rep.max_rel
        );
    }

    #[test]
    fn all_four_types_match_reference_f64() {
        let tg = small_tuned();
        for ty in GemmType::ALL {
            check_type::<f64>(&tg, ty, 40, 24, 20);
        }
    }

    #[test]
    fn all_four_types_match_reference_f32() {
        let tg = small_tuned();
        for ty in GemmType::ALL {
            check_type::<f32>(&tg, ty, 24, 40, 36);
        }
    }

    #[test]
    fn non_multiple_sizes_are_zero_padded_correctly() {
        let tg = small_tuned();
        // Sizes deliberately not multiples of Mwg=Nwg=16, Kwg=8.
        check_type::<f64>(&tg, GemmType::NN, 17, 19, 13);
        check_type::<f64>(&tg, GemmType::TT, 15, 33, 9);
        check_type::<f32>(&tg, GemmType::NT, 31, 17, 23);
    }

    #[test]
    fn paper_tahiti_params_work_in_routine() {
        let tg = TunedGemm::new(
            DeviceId::Tahiti.spec(),
            tahiti_dgemm_best(),
            small_test_params(Precision::F32),
        );
        check_type::<f64>(&tg, GemmType::NN, 100, 40, 50);
    }

    #[test]
    fn copy_overhead_vanishes_for_large_n() {
        let tg = TunedGemm::new(
            DeviceId::Tahiti.spec(),
            tahiti_dgemm_best(),
            small_test_params(Precision::F32),
        );
        let small = tg.predict(true, GemmType::NN, 512, 512, 512);
        let large = tg.predict(true, GemmType::NN, 6144, 6144, 6144);
        let small_frac = (small.pack_a + small.pack_b + small.stage_c) / small.total;
        let large_frac = (large.pack_a + large.pack_b + large.stage_c) / large.total;
        assert!(
            small_frac > 2.0 * large_frac,
            "copy share must shrink with N: {small_frac:.3} vs {large_frac:.3}"
        );
        assert!(large.gflops > 0.8 * large.kernel_gflops);
    }

    #[test]
    fn routine_perf_is_nearly_type_independent() {
        // §IV-B: "The performance of our OpenCL implementation does not
        // highly depend on GEMM types."
        let tg = TunedGemm::new(
            DeviceId::Tahiti.spec(),
            tahiti_dgemm_best(),
            small_test_params(Precision::F32),
        );
        let perfs: Vec<f64> = GemmType::ALL
            .iter()
            .map(|ty| tg.predict(true, *ty, 4096, 4096, 4096).gflops)
            .collect();
        let max = perfs.iter().cloned().fold(0.0, f64::max);
        let min = perfs.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max / min < 1.1, "type spread too large: {perfs:?}");
    }

    #[test]
    fn kernel_gflops_exceeds_routine_gflops() {
        let tg = TunedGemm::new(
            DeviceId::Tahiti.spec(),
            tahiti_dgemm_best(),
            small_test_params(Precision::F32),
        );
        let run = tg.predict(true, GemmType::NN, 2304, 2304, 2304);
        assert!(run.kernel_gflops > run.gflops);
        let kg = tg.kernel_gflops(Precision::F64, 2304).unwrap();
        assert!((kg - run.kernel_gflops).abs() / kg < 0.2);
    }

    #[test]
    #[should_panic(expected = "dgemm params must be F64")]
    fn wrong_precision_bundle_panics() {
        let _ = TunedGemm::new(
            DeviceId::Tahiti.spec(),
            small_test_params(Precision::F32),
            small_test_params(Precision::F32),
        );
    }

    #[test]
    fn degenerate_m_or_n_touches_nothing_and_reports_empty() {
        let tg = small_tuned();
        for opts in [GemmOptions::default(), GemmOptions::reference()] {
            for (m, n) in [(0usize, 8usize), (8, 0), (0, 0)] {
                let a = Matrix::<f64>::test_pattern(m, 5, StorageOrder::ColMajor, 1);
                let b = Matrix::<f64>::test_pattern(5, n, StorageOrder::ColMajor, 2);
                let mut c = Matrix::<f64>::zeros(m, n, StorageOrder::ColMajor);
                let mut ws = Workspace::new();
                let run = tg.gemm_with(GemmType::NN, 2.0, &a, &b, 3.0, &mut c, &mut ws, &opts);
                // No fabricated model timings for work that never ran.
                assert_eq!(run, GemmRun::empty(), "{opts:?} {m}x{n}");
                assert_eq!(ws.grows(), 0, "no staging buffers for an empty C");
            }
        }
    }

    #[test]
    fn k_zero_scales_c_by_beta_for_all_types_and_engines() {
        let tg = small_tuned();
        for opts in [GemmOptions::default(), GemmOptions::reference()] {
            for ty in GemmType::ALL {
                let (ar, ac) = if ty.ta == Trans::No { (7, 0) } else { (0, 7) };
                let (br, bc) = if ty.tb == Trans::No { (0, 9) } else { (9, 0) };
                let a = Matrix::<f64>::test_pattern(ar, ac, StorageOrder::ColMajor, 1);
                let b = Matrix::<f64>::test_pattern(br, bc, StorageOrder::ColMajor, 2);
                let c0 = Matrix::<f64>::test_pattern(7, 9, StorageOrder::ColMajor, 3);
                let mut c = c0.clone();
                let mut ws = Workspace::new();
                let run = tg.gemm_with(ty, 2.0, &a, &b, -0.5, &mut c, &mut ws, &opts);
                assert_eq!(run, GemmRun::empty(), "{opts:?} {ty}");
                for j in 0..9 {
                    for i in 0..7 {
                        assert_eq!(c.at(i, j), -0.5 * c0.at(i, j), "{opts:?} {ty} ({i},{j})");
                    }
                }
            }
        }
    }

    #[test]
    fn fast_engine_is_bit_identical_to_reference() {
        let tg = small_tuned();
        let mut ws = Workspace::new();
        for ty in GemmType::ALL {
            for (m, n, k) in [(17usize, 19usize, 13usize), (40, 24, 20), (8, 8, 8)] {
                let (ar, ac) = if ty.ta == Trans::No { (m, k) } else { (k, m) };
                let (br, bc) = if ty.tb == Trans::No { (k, n) } else { (n, k) };
                let a = Matrix::<f64>::test_pattern(ar, ac, StorageOrder::ColMajor, 1);
                let b = Matrix::<f64>::test_pattern(br, bc, StorageOrder::ColMajor, 2);
                let c0 = Matrix::<f64>::test_pattern(m, n, StorageOrder::ColMajor, 3);

                let mut c_fast = c0.clone();
                tg.gemm_with(
                    ty,
                    1.25,
                    &a,
                    &b,
                    -0.75,
                    &mut c_fast,
                    &mut ws,
                    &GemmOptions::default(),
                );
                let mut c_ref = c0.clone();
                let mut ws_ref = Workspace::new();
                tg.gemm_with(
                    ty,
                    1.25,
                    &a,
                    &b,
                    -0.75,
                    &mut c_ref,
                    &mut ws_ref,
                    &GemmOptions::reference(),
                );
                assert_eq!(
                    c_fast.as_slice(),
                    c_ref.as_slice(),
                    "{ty} {m}x{n}x{k} engines diverge"
                );
            }
        }
    }

    #[test]
    fn workspace_stops_growing_on_repeated_shapes() {
        let tg = small_tuned();
        let mut ws = Workspace::new();
        let a = Matrix::<f32>::test_pattern(33, 21, StorageOrder::ColMajor, 1);
        let b = Matrix::<f32>::test_pattern(21, 27, StorageOrder::ColMajor, 2);
        let mut c = Matrix::<f32>::test_pattern(33, 27, StorageOrder::ColMajor, 3);
        tg.gemm_with(
            GemmType::NN,
            1.0,
            &a,
            &b,
            0.5,
            &mut c,
            &mut ws,
            &GemmOptions::default(),
        );
        let grows = ws.grows();
        assert!(grows > 0, "first call must allocate staging buffers");
        for _ in 0..3 {
            tg.gemm_with(
                GemmType::NN,
                1.0,
                &a,
                &b,
                0.5,
                &mut c,
                &mut ws,
                &GemmOptions::default(),
            );
        }
        assert_eq!(ws.grows(), grows, "steady state must not reallocate");
    }

    #[test]
    fn fast_run_reports_the_tile_decision_and_reference_does_not() {
        let tg = small_tuned();
        let a = Matrix::<f64>::test_pattern(20, 12, StorageOrder::ColMajor, 1);
        let b = Matrix::<f64>::test_pattern(12, 24, StorageOrder::ColMajor, 2);
        let mut c = Matrix::<f64>::zeros(20, 24, StorageOrder::ColMajor);
        let mut ws = Workspace::new();

        let fast = tg.gemm_with(
            GemmType::NN,
            1.0,
            &a,
            &b,
            0.0,
            &mut c,
            &mut ws,
            &GemmOptions::default(),
        );
        let d = fast.tile.expect("fast engine must report its tile");
        assert_eq!(
            d.tuned,
            (
                tg.params(Precision::F64).mwi(),
                tg.params(Precision::F64).nwi()
            )
        );
        assert_eq!(
            d,
            tg.predict(true, GemmType::NN, 20, 24, 12).tile.unwrap(),
            "prediction must report the same decision the execution used"
        );

        let reference = tg.gemm_with(
            GemmType::NN,
            1.0,
            &a,
            &b,
            0.0,
            &mut c,
            &mut ws,
            &GemmOptions::reference(),
        );
        assert_eq!(reference.tile, None, "the reference engine runs untiled");
    }

    #[test]
    fn alpha_zero_short_circuits_without_staging() {
        let tg = small_tuned();
        for ty in GemmType::ALL {
            let (ar, ac) = if ty.ta == Trans::No {
                (18, 11)
            } else {
                (11, 18)
            };
            let (br, bc) = if ty.tb == Trans::No {
                (11, 23)
            } else {
                (23, 11)
            };
            let a = Matrix::<f64>::test_pattern(ar, ac, StorageOrder::ColMajor, 1);
            let b = Matrix::<f64>::test_pattern(br, bc, StorageOrder::ColMajor, 2);
            let c0 = Matrix::<f64>::from_fn(18, 23, StorageOrder::ColMajor, |i, j| {
                (i * 23 + j + 1) as f64 * 0.125
            });

            let mut c_fast = c0.clone();
            let mut ws = Workspace::new();
            let run = tg.gemm_with(
                ty,
                0.0,
                &a,
                &b,
                0.75,
                &mut c_fast,
                &mut ws,
                &GemmOptions::default(),
            );
            assert_eq!(run, GemmRun::empty(), "{ty}: nothing was packed or run");
            assert_eq!(ws.grows(), 0, "{ty}: α = 0 must not stage anything");

            // Bit-equality against the full reference pipeline. Positive
            // data and a nonzero β·C term keep every merge input away
            // from signed zeros, so `to_bits` comparison is exact.
            let mut c_ref = c0.clone();
            let mut ws_ref = Workspace::new();
            tg.gemm_with(
                ty,
                0.0,
                &a,
                &b,
                0.75,
                &mut c_ref,
                &mut ws_ref,
                &GemmOptions::reference(),
            );
            for (x, y) in c_fast.as_slice().iter().zip(c_ref.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "{ty}: short-circuit diverges");
            }
        }
    }

    #[test]
    fn sub_threshold_shapes_pack_serially_and_report_it() {
        let tg = small_tuned();
        let mut ws = Workspace::new();
        // 40×24×20: every edge at or below the threshold, so the panels
        // pack serially.
        let a = Matrix::<f64>::test_pattern(40, 20, StorageOrder::ColMajor, 1);
        let b = Matrix::<f64>::test_pattern(20, 24, StorageOrder::ColMajor, 2);
        let mut c = Matrix::<f64>::zeros(40, 24, StorageOrder::ColMajor);
        let run = tg.gemm_with(
            GemmType::NN,
            1.0,
            &a,
            &b,
            0.0,
            &mut c,
            &mut ws,
            &GemmOptions::default(),
        );
        let pd = run.pack.expect("fast engine must report its pack path");
        assert!(pd.serial, "sub-threshold shapes copy serially");
        assert_eq!(pd.threshold, SERIAL_PACK_MAX);
        assert_eq!(
            run.pack,
            tg.predict(true, GemmType::NN, 40, 24, 20).pack,
            "prediction must report the same pack decision"
        );

        // One edge past the threshold: the panels pack on the pool.
        let m = SERIAL_PACK_MAX + 6;
        let a = Matrix::<f64>::test_pattern(m, 20, StorageOrder::ColMajor, 1);
        let b = Matrix::<f64>::test_pattern(20, 24, StorageOrder::ColMajor, 2);
        let mut c = Matrix::<f64>::zeros(m, 24, StorageOrder::ColMajor);
        let run = tg.gemm_with(
            GemmType::NN,
            1.0,
            &a,
            &b,
            0.0,
            &mut c,
            &mut ws,
            &GemmOptions::default(),
        );
        assert!(!run.pack.unwrap().serial, "{m} rows exceed the threshold");

        // The reference engine reports no pack decision.
        let mut c = Matrix::<f64>::zeros(m, 24, StorageOrder::ColMajor);
        let run = tg.gemm_with(
            GemmType::NN,
            1.0,
            &a,
            &b,
            0.0,
            &mut c,
            &mut ws,
            &GemmOptions::reference(),
        );
        assert_eq!(run.pack, None);
    }

    #[test]
    fn beta_zero_ignores_garbage_c() {
        let tg = small_tuned();
        let a = Matrix::<f64>::test_pattern(20, 12, StorageOrder::ColMajor, 1);
        let b = Matrix::<f64>::test_pattern(12, 24, StorageOrder::ColMajor, 2);
        let mut c = Matrix::<f64>::from_fn(20, 24, StorageOrder::ColMajor, |_, _| 1e30);
        tg.gemm(GemmType::NN, 1.0, &a, &b, 0.0, &mut c);
        assert!(c.all_finite());
        let mut c_ref = Matrix::<f64>::zeros(20, 24, StorageOrder::ColMajor);
        gemm_parallel(GemmType::NN, 1.0, &a, &b, 0.0, &mut c_ref);
        assert!(compare(&c, &c_ref).passes(gemm_tolerance::<f64>(12)));
    }
}

/// Which execution path a [`HybridGemm`] call took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GemmPath {
    /// Pack into block-major buffers and run the tuned `AᵀB` kernel
    /// (the §IV-B routine; wins at large sizes).
    Packed,
    /// The copy-free guarded kernel of [`crate::direct`] (the paper's §V
    /// future work; wins at small sizes where packing dominates).
    Direct,
}

impl std::fmt::Display for GemmPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            GemmPath::Packed => "packed",
            GemmPath::Direct => "direct",
        })
    }
}

/// The combined implementation the paper's conclusion asks for: predict
/// both paths and run whichever the model says is faster.
#[derive(Debug, Clone)]
pub struct HybridGemm {
    tuned: TunedGemm,
}

impl HybridGemm {
    /// Wrap a tuned routine.
    #[must_use]
    pub fn new(tuned: TunedGemm) -> HybridGemm {
        HybridGemm { tuned }
    }

    /// The underlying packed routine.
    #[must_use]
    pub fn tuned(&self) -> &TunedGemm {
        &self.tuned
    }

    /// Modelled seconds of the direct path.
    #[must_use]
    pub fn direct_seconds(
        &self,
        double_precision: bool,
        ty: GemmType,
        m: usize,
        n: usize,
        k: usize,
    ) -> f64 {
        let precision = if double_precision {
            Precision::F64
        } else {
            Precision::F32
        };
        let dp = crate::direct::DirectParams::default_for(ty, precision);
        let prof = crate::direct::direct_profile(&dp, self.tuned.device(), m, n, k);
        match estimate(self.tuned.device(), &prof) {
            Ok(est) => est.seconds,
            Err(_) => f64::INFINITY,
        }
    }

    /// Choose the faster path and report both predictions.
    #[must_use]
    pub fn choose(
        &self,
        double_precision: bool,
        ty: GemmType,
        m: usize,
        n: usize,
        k: usize,
    ) -> (GemmPath, GemmRun) {
        let packed = self.tuned.predict(double_precision, ty, m, n, k);
        let direct_s = self.direct_seconds(double_precision, ty, m, n, k);
        if direct_s < packed.total {
            let flops = 2.0 * m as f64 * n as f64 * k as f64;
            let run = GemmRun {
                pack_a: 0.0,
                pack_b: 0.0,
                stage_c: 0.0,
                kernel: direct_s,
                total: direct_s,
                gflops: flops / direct_s / 1e9,
                kernel_gflops: flops / direct_s / 1e9,
                tile: None,
                pack: None,
            };
            (GemmPath::Direct, run)
        } else {
            (GemmPath::Packed, packed)
        }
    }

    /// Column-major GEMM through whichever path the model prefers.
    ///
    /// Convenience wrapper over [`HybridGemm::gemm_with`] using a
    /// throwaway [`Workspace`] and the default engine; hot-path callers
    /// should hold their own workspace.
    ///
    /// # Panics
    /// Panics on inconsistent operand shapes.
    pub fn gemm<T: WorkspaceScalar>(
        &self,
        ty: GemmType,
        alpha: T,
        a: &Matrix<T>,
        b: &Matrix<T>,
        beta: T,
        c: &mut Matrix<T>,
    ) -> (GemmPath, GemmRun) {
        let mut ws = Workspace::new();
        self.gemm_with(ty, alpha, a, b, beta, c, &mut ws, &GemmOptions::default())
    }

    /// [`HybridGemm::gemm`] with an explicit staging [`Workspace`] and
    /// engine selection — the same plumbing [`TunedGemm::gemm_with`]
    /// exposes, so serving callers reuse one workspace across both
    /// paths. The direct path reads the user matrices in place and
    /// performs no staging at all: it never grows the workspace, which
    /// the steady-state allocation gates rely on.
    ///
    /// # Panics
    /// Panics on inconsistent operand shapes.
    #[allow(clippy::too_many_arguments)]
    pub fn gemm_with<T: WorkspaceScalar>(
        &self,
        ty: GemmType,
        alpha: T,
        a: &Matrix<T>,
        b: &Matrix<T>,
        beta: T,
        c: &mut Matrix<T>,
        ws: &mut Workspace,
        opts: &GemmOptions,
    ) -> (GemmPath, GemmRun) {
        let (m, n, k) = clgemm_blas::gemm_ref::check_shapes(ty, a, b, c);
        let (path, run) = self.choose(T::PREC_TAG == 'D', ty, m.max(1), n.max(1), k.max(1));
        Registry::global()
            .counter_labeled(
                "routine_path_total",
                &[(
                    "path",
                    match path {
                        GemmPath::Packed => "packed",
                        GemmPath::Direct => "direct",
                    },
                )],
            )
            .inc();
        match path {
            GemmPath::Packed => {
                let run = self.tuned.gemm_with(ty, alpha, a, b, beta, c, ws, opts);
                (GemmPath::Packed, run)
            }
            GemmPath::Direct => {
                let _span = clgemm_trace::span!("routine.gemm.direct");
                crate::direct::run_direct_native(ty, alpha, a, b, beta, c);
                (GemmPath::Direct, run)
            }
        }
    }

    /// The size (square problems) where the packed path overtakes the
    /// direct path, by bisection on the model. Returns `None` if one path
    /// dominates over the whole probed range.
    #[must_use]
    pub fn crossover(&self, double_precision: bool, ty: GemmType, max_n: usize) -> Option<usize> {
        let prefers_direct =
            |n: usize| self.choose(double_precision, ty, n, n, n).0 == GemmPath::Direct;
        if !prefers_direct(16) || prefers_direct(max_n) {
            return None;
        }
        let (mut lo, mut hi) = (16usize, max_n);
        while hi - lo > 8 {
            let mid = (lo + hi) / 2;
            if prefers_direct(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Some(hi)
    }
}

#[cfg(test)]
mod hybrid_tests {
    use super::*;
    use crate::params::{small_test_params, tahiti_dgemm_best};
    use clgemm_blas::error::{compare, gemm_tolerance};
    use clgemm_blas::gemm_ref::gemm_blocked;
    use clgemm_blas::matrix::StorageOrder;
    use clgemm_device::DeviceId;

    fn hybrid() -> HybridGemm {
        HybridGemm::new(TunedGemm::new(
            DeviceId::Tahiti.spec(),
            tahiti_dgemm_best(),
            small_test_params(Precision::F32),
        ))
    }

    #[test]
    fn small_problems_take_the_direct_path() {
        let h = hybrid();
        let (path, run) = h.choose(true, GemmType::NN, 64, 64, 64);
        assert_eq!(
            path,
            GemmPath::Direct,
            "packing 64x64 cannot beat a single direct launch"
        );
        assert_eq!(run.pack_a, 0.0);
    }

    #[test]
    fn large_problems_take_the_packed_path() {
        let h = hybrid();
        let (path, _) = h.choose(true, GemmType::NN, 4096, 4096, 4096);
        assert_eq!(path, GemmPath::Packed);
    }

    #[test]
    fn crossover_exists_and_is_plausible() {
        let h = hybrid();
        let x = h
            .crossover(true, GemmType::NN, 8192)
            .expect("crossover in range");
        assert!(
            (64..4096).contains(&x),
            "crossover N={x} should sit between tiny and huge sizes"
        );
        // Hybrid is never worse than either pure path.
        for n in [128usize, 512, 2048] {
            let (_, hrun) = h.choose(true, GemmType::NN, n, n, n);
            let packed = h.tuned().predict(true, GemmType::NN, n, n, n).total;
            let direct = h.direct_seconds(true, GemmType::NN, n, n, n);
            assert!(hrun.total <= packed * 1.0001 && hrun.total <= direct * 1.0001);
        }
    }

    #[test]
    fn hybrid_gemm_is_numerically_correct_on_both_paths() {
        let h = hybrid();
        for (m, n, k) in [(30, 20, 25), (200, 150, 120)] {
            let a = Matrix::<f64>::test_pattern(m, k, StorageOrder::ColMajor, 1);
            let b = Matrix::<f64>::test_pattern(k, n, StorageOrder::ColMajor, 2);
            let c0 = Matrix::<f64>::test_pattern(m, n, StorageOrder::ColMajor, 3);
            let mut c = c0.clone();
            let (_path, run) = h.gemm(GemmType::NN, 2.0, &a, &b, 0.5, &mut c);
            assert!(run.total > 0.0);
            let mut c_ref = c0.clone();
            gemm_blocked(GemmType::NN, 2.0, &a, &b, 0.5, &mut c_ref);
            let rep = compare(&c, &c_ref);
            assert!(
                rep.passes(gemm_tolerance::<f64>(k)),
                "{m}x{n}x{k}: {}",
                rep.max_rel
            );
        }
    }

    #[test]
    fn direct_path_shares_the_workspace_without_growing_it() {
        // The copy-free direct path now rides the same gemm_with/Workspace
        // plumbing as the packed path — and must never allocate from it.
        let h = hybrid();
        let mut ws = Workspace::new();
        let a = Matrix::<f64>::test_pattern(48, 48, StorageOrder::ColMajor, 1);
        let b = Matrix::<f64>::test_pattern(48, 48, StorageOrder::ColMajor, 2);
        for _ in 0..3 {
            let mut c = Matrix::<f64>::test_pattern(48, 48, StorageOrder::ColMajor, 3);
            let (path, run) = h.gemm_with(
                GemmType::NN,
                2.0,
                &a,
                &b,
                0.5,
                &mut c,
                &mut ws,
                &GemmOptions::default(),
            );
            assert_eq!(path, GemmPath::Direct, "48x48 must prefer direct");
            assert_eq!(run.tile, None, "direct path runs no packed microkernel");
        }
        assert_eq!(ws.grows(), 0, "direct traffic must never grow the pool");

        // A packed-path call through the same workspace still stages.
        let a = Matrix::<f64>::test_pattern(900, 900, StorageOrder::ColMajor, 1);
        let b = Matrix::<f64>::test_pattern(900, 900, StorageOrder::ColMajor, 2);
        let mut c = Matrix::<f64>::zeros(900, 900, StorageOrder::ColMajor);
        let (path, run) = h.gemm_with(
            GemmType::NN,
            1.0,
            &a,
            &b,
            0.0,
            &mut c,
            &mut ws,
            &GemmOptions::default(),
        );
        if path == GemmPath::Packed {
            assert!(ws.grows() > 0, "packed traffic stages through the pool");
            assert!(run.tile.is_some());
        }
    }

    #[test]
    fn transposed_types_shift_the_crossover_down() {
        // Transposed direct reads coalesce poorly, so the packed path
        // becomes competitive earlier for TT than for NN.
        let h = hybrid();
        let x_nn = h.crossover(true, GemmType::NN, 8192);
        let x_tt = h.crossover(true, GemmType::TT, 8192);
        if let (Some(nn), Some(tt)) = (x_nn, x_tt) {
            assert!(
                tt <= nn,
                "TT crossover {tt} should not exceed NN crossover {nn}"
            );
        }
    }
}
