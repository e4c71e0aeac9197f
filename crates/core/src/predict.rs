//! Analytical parameter prediction — the device model inverted.
//!
//! The three-stage search of §III-F *evaluates* the timing model over
//! tens of thousands of candidates. This module runs the same model
//! backwards: from a [`DeviceSpec`] alone it derives, in closed form,
//! which regions of the parameter space can possibly win, and emits a
//! tiny ranked enumeration (≤ [`MAX_CANDIDATES`]) of parameter sets —
//! no search required. Two artifacts come out of the inversion:
//!
//! * [`FeasibleSet`] — a per-device predicate over [`KernelParams`]
//!   whose rules are each a provable (or empirically validated)
//!   consequence of the timing model in `clgemm-device`:
//!
//!   1. **Wavefront** (GPU): `lane_eff` in the issue bound wastes the
//!      tail lanes of any work-group not a multiple of the SIMT width —
//!      an aligned sibling always issues strictly faster.
//!   2. **Vector width**: on GPUs `vw = 1` is dominated by its `vw = 2`
//!      twin (B-side instruction count halves, the §III-B A-transaction
//!      amplification `Mwi/vw` shrinks), and widths beyond the load
//!      unit (`vw·elem > max_load_bytes`) split into multiple hardware
//!      transactions — unless the kernel reads A directly with unit
//!      stride, where the model's transaction-amplification escape
//!      genuinely rewards the wider type. On CPUs any `vw` short of
//!      the native SIMD width scales `simd_utilization` (and hence the
//!      issue rate) down linearly.
//!   3. **CpuLocal**: on cache-backed devices ([`LocalMemType::GlobalBacked`])
//!      local-memory staging is charged as *extra* cache traffic plus
//!      barriers bought nothing — the key CPU observation of §IV-A.
//!   4. **RowMajor**: a row-major operand layout is weakly dominated by
//!      its block-major twin — the model only ever penalises it
//!      (coalescing efficiency, the 1.15× cache factor, and the
//!      power-of-two channel-conflict cliff fire for row-major alone).
//!   5. **StrideDup**: the timing model reads `stride_m` only; a
//!      non-unit N stride is byte-for-byte identical to its unit-N
//!      twin, so one of the pair is pure duplicate work.
//!   6. **LoaderShape**: a staged operand's loader moves exactly
//!      `Wwg·Kwg / wg` elements *regardless* of its `(dima, kdima)`
//!      shape — the shape's only model effect is whether the loader
//!      vectorises. The search space's sibling shapes therefore split
//!      into at most two classes (vector / scalar loads); within a
//!      class they are model-identical, and the vector class weakly
//!      dominates, so a single canonical representative suffices.
//!   7. **Launch / Residency**: the occupancy model either rejects the
//!      launch outright or grants it fewer resident wavefronts than
//!      `min_wavefronts`, in which case the issue `saturation` factor
//!      derates the kernel below an admitted sibling (§III-E's "not
//!      enough work-groups to hide memory latency"). Residency is the
//!      register-budget logic of `tile.rs` writ large: the register
//!      file divided by the minimum resident work-items bounds
//!      `regs_per_wi` from above.
//!
//! * [`predict`] — a closed-form candidate constructor: per-knob
//!   preference lists derived from the device constants (wavefront-
//!   aligned work-group shapes, register-budget-inverted tiles,
//!   LDS-residency-inverted `Kwg`, load-unit/SIMD-inverted `vw`),
//!   crossed, filtered through the feasible set, ranked by the timing
//!   model at the stage-1 representative size, and truncated.
//!
//! The serving layer uses [`predict_best`] to cold-start unseen shape
//! buckets with zero search, and the tuner uses [`FeasibleSet`] to
//! prune its stage-1 space (see `SearchOpts::predictor_prune`).
//! `CLGEMM_PREDICT=off` disables the serve-side predictor (see
//! [`predict_enabled`]).

use crate::params::{decided, knob, Algorithm, KernelParams, StrideMode};
use crate::tuner::search::{measure_gflops, stage1_base, stage1_n};
use crate::tuner::space::Operand;
use clgemm_blas::layout::BlockLayout;
use clgemm_blas::scalar::Precision;
use clgemm_device::{occupancy, DeviceSpec, LocalMemType};

/// Upper bound on the ranked enumeration [`predict`] returns.
pub const MAX_CANDIDATES: usize = 16;

/// Why the feasible set excludes a parameter set. Each variant's
/// [`tag`](PruneReason::tag) labels the `tuner_pruned_total` counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PruneReason {
    /// GPU work-group size not a multiple of the SIMT width.
    Wavefront,
    /// Vector width mismatched to the device's load unit / SIMD width.
    VectorWidth,
    /// Local-memory staging on a cache-backed (CPU) device.
    CpuLocal,
    /// Row-major operand layout (dominated by its block-major twin).
    RowMajor,
    /// Non-unit N stride: modelled identically to its unit-N twin.
    StrideDup,
    /// Non-canonical loader shape: a sibling shape loads the same
    /// element count at greater-or-equal vector width.
    LoaderShape,
    /// The occupancy model rejects the launch outright.
    Launch,
    /// Too few resident wavefronts to hide memory latency.
    Residency,
}

impl PruneReason {
    /// All reasons, in rule-evaluation order.
    pub const ALL: [PruneReason; 8] = [
        PruneReason::Wavefront,
        PruneReason::VectorWidth,
        PruneReason::CpuLocal,
        PruneReason::RowMajor,
        PruneReason::StrideDup,
        PruneReason::LoaderShape,
        PruneReason::Launch,
        PruneReason::Residency,
    ];

    /// Label value for the `tuner_pruned_total{reason=…}` counter.
    #[must_use]
    pub fn tag(self) -> &'static str {
        match self {
            PruneReason::Wavefront => "wavefront",
            PruneReason::VectorWidth => "vector-width",
            PruneReason::CpuLocal => "cpu-local",
            PruneReason::RowMajor => "row-major",
            PruneReason::StrideDup => "stride-dup",
            PruneReason::LoaderShape => "loader-shape",
            PruneReason::Launch => "launch",
            PruneReason::Residency => "residency",
        }
    }

    /// Position in [`Self::ALL`] (for fixed-size tally arrays).
    #[must_use]
    pub fn index(self) -> usize {
        Self::ALL
            .iter()
            .position(|r| *r == self)
            .expect("reason is in ALL")
    }
}

/// The model-derived feasible region of the parameter space for one
/// (device, precision) pair. See the module docs for the rule list.
#[derive(Debug, Clone)]
pub struct FeasibleSet {
    dev: DeviceSpec,
    precision: Precision,
}

impl FeasibleSet {
    /// Derive the feasible set from the device description.
    #[must_use]
    pub fn derive(dev: &DeviceSpec, precision: Precision) -> FeasibleSet {
        FeasibleSet {
            dev: dev.clone(),
            precision,
        }
    }

    /// The precision this set was derived for.
    #[must_use]
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Upper bound on `regs_per_wi` implied by latency hiding: the
    /// register file must hold at least `min_wavefronts · wavefront`
    /// resident work-items (the `tile.rs` register budget, inverted at
    /// device scale).
    #[must_use]
    pub fn max_regs_per_wi(&self) -> usize {
        let micro = &self.dev.micro;
        let min_wis = ((micro.min_wavefronts * micro.wavefront as f64).ceil() as usize).max(1);
        (micro.regs_per_cu / min_wis).max(1)
    }

    /// `Some(reason)` when the model proves `p` cannot win stage 1;
    /// `None` when the candidate is admitted.
    #[must_use]
    pub fn reject(&self, p: &KernelParams) -> Option<PruneReason> {
        let dev = &self.dev;
        let micro = &dev.micro;
        let elem = p.elem_bytes();
        let cpu = dev.is_cpu();

        if !cpu && !p.wg_size().is_multiple_of(micro.wavefront) {
            return Some(PruneReason::Wavefront);
        }
        if cpu {
            // Below the native SIMD width, `simd_utilization` scales
            // the issue rate down linearly — the wide twin dominates.
            let words = (elem / 4).max(1);
            if p.vw * words < micro.native_simd_lanes {
                return Some(PruneReason::VectorWidth);
            }
        } else {
            // A doubled vector width strictly dominates in the model —
            // B-side instruction count halves, the §III-B transaction
            // amplification `Mwi/vw` shrinks, nothing else moves —
            // provided the wider twin is expressible (`Nwi % vw'`),
            // stays within the load unit, and degrades neither the
            // loader vectorisation nor the compute-phase A reads.
            if self.dominated_by_wider_vw(p) {
                return Some(PruneReason::VectorWidth);
            }
            // Beyond the load unit the access splits; only the direct
            // unit-stride A path (§III-B transaction amplification)
            // still profits from the wider type.
            if p.vw * elem > micro.max_load_bytes && !p.direct_a_vec() {
                return Some(PruneReason::VectorWidth);
            }
        }
        if dev.local_mem_type == LocalMemType::GlobalBacked && (p.local_a || p.local_b) {
            return Some(PruneReason::CpuLocal);
        }
        if p.layout_a == BlockLayout::RowMajor || p.layout_b == BlockLayout::RowMajor {
            return Some(PruneReason::RowMajor);
        }
        if p.stride_n == StrideMode::NonUnit {
            return Some(PruneReason::StrideDup);
        }
        let loaders = [
            (Operand::A, p.local_a, p.mwg, p.mdima),
            (Operand::B, p.local_b, p.nwg, p.ndimb),
        ];
        for (side, staged, wwg, dim) in loaders {
            if staged && canonical_loader_dim(p, side, wwg, dim, dev).is_some_and(|d| d != dim) {
                return Some(PruneReason::LoaderShape);
            }
        }
        match occupancy(dev, p.wg_size(), p.regs_per_wi(), p.lds_bytes()) {
            Err(_) => Some(PruneReason::Launch),
            Ok(occ) => {
                if (occ.wavefronts_per_cu as f64) < micro.min_wavefronts {
                    Some(PruneReason::Residency)
                } else {
                    None
                }
            }
        }
    }

    /// `true` when the candidate survives every rule.
    #[must_use]
    pub fn admits(&self, p: &KernelParams) -> bool {
        self.reject(p).is_none()
    }

    /// GPU vector-width domination: does the `2·vw` twin weakly beat
    /// `p` on every model term? True exactly when the twin (a) is a
    /// valid parameter set (`Nwi % 2vw`), (b) still fits the hardware
    /// load unit, (c) loses no loader vectorisation (`loader_{a,b}_vec`
    /// must not flip off), and (d) loses no compute-phase A read width
    /// (`read_a_vec` must not flip off). Everything else in the launch
    /// profile — registers, LDS, barriers, DRAM bytes, coalescing — is
    /// vw-independent.
    fn dominated_by_wider_vw(&self, p: &KernelParams) -> bool {
        let twin = KernelParams { vw: p.vw * 2, ..*p };
        let reads_vw = const { decided(knob::ALL & !knob::VW, knob::ALL) };
        if !twin.satisfies(reads_vw, &self.dev)
            || twin.vw * p.elem_bytes() > self.dev.micro.max_load_bytes
        {
            return false;
        }
        // A width-1 access is width-1 whether or not its `*_vec` flag
        // holds, so "degradation" can only happen from vw > 1.
        let keeps = |was: bool, is: bool| !was || is;
        p.vw == 1
            || keeps(p.loader_a_vec(), twin.loader_a_vec())
                && keeps(p.loader_b_vec(), twin.loader_b_vec())
                && keeps(p.read_a_vec(), twin.read_a_vec())
    }
}

/// Canonical loader shape for one staged operand of `p` with block extent
/// `wwg` and loader shape `dim`. A loader moves `wwg·kwg / wg` elements
/// however the work-group is reshaped over the block, so among the
/// space's sibling shapes `{dimc, 2·dimc}` ([`Operand::siblings`]) the
/// only model-visible difference is whether `wwg % (dim·vw) == 0` grants
/// width-`vw` loads. Siblings in the same class are model-identical; the
/// vector class weakly dominates the scalar one. Returns the unique
/// representative — the smallest sibling of the best class — or `None`
/// when `dim` is not one of the recognised siblings (the space's rare
/// fallback shapes), where no dominance claim is made. Registers, LDS,
/// occupancy, and the PL prefetch term (`wwg·kwg / wg` again) are all
/// shape-independent.
fn canonical_loader_dim(
    p: &KernelParams,
    side: Operand,
    wwg: usize,
    dim: usize,
    dev: &DeviceSpec,
) -> Option<usize> {
    let siblings = side.siblings(p, dev);
    if !siblings.contains(&Some(dim)) {
        return None;
    }
    let vector = siblings
        .into_iter()
        .flatten()
        .find(|&d| wwg.is_multiple_of(d * p.vw));
    vector.or(siblings.into_iter().flatten().next())
}

/// One predicted parameter set with its model-forecast performance at
/// the stage-1 representative problem size.
#[derive(Debug, Clone)]
pub struct Prediction {
    pub params: KernelParams,
    /// Model GFlop/s at the stage-1 size the tuner would have used.
    pub gflops: f64,
}

/// Work-group shape preference list: the largest SIMT-aligned shapes
/// that fit the device (GPUs want big groups for operand reuse; CPUs
/// run one work-item per "lane" and favour modest groups).
fn wg_shapes(dev: &DeviceSpec) -> Vec<(usize, usize)> {
    if dev.is_cpu() {
        return vec![(8, 8), (4, 4), (16, 8)];
    }
    let micro = &dev.micro;
    let all = [(16, 16), (16, 8), (8, 16), (8, 8), (8, 4)];
    let mut shapes: Vec<(usize, usize)> = all
        .into_iter()
        .filter(|&(m, n)| {
            let wg = m * n;
            wg <= micro.max_wg_size && wg.is_multiple_of(micro.wavefront)
        })
        .collect();
    shapes.truncate(3);
    shapes
}

/// Work-item tile preference list, filtered by the register-budget
/// inversion: accumulators + staging must leave room for the minimum
/// resident work-item count.
fn tiles(feasible: &FeasibleSet, precision: Precision) -> Vec<(usize, usize)> {
    let words = (precision.bytes() / 4).max(1);
    let budget = feasible.max_regs_per_wi();
    // Ordered by arithmetic intensity per register, biased toward the
    // M-major rectangles the paper's winners favour.
    let all = [
        (6, 2),
        (4, 4),
        (8, 4),
        (4, 8),
        (8, 2),
        (2, 8),
        (8, 8),
        (4, 2),
        (2, 4),
        (2, 2),
    ];
    all.into_iter()
        .filter(|&(mwi, nwi)| {
            // Accumulators + minimal staging, in 32-bit slots (the
            // `regs_per_wi` formula with kwi = 2, no prefetch).
            let regs = (mwi * nwi + 2 * (mwi + nwi)) * words + 24;
            regs <= budget
        })
        .collect()
}

/// Closed-form candidate constructor: cross the per-knob inversions.
fn closed_form_candidates(dev: &DeviceSpec, precision: Precision) -> Vec<KernelParams> {
    let feasible = FeasibleSet::derive(dev, precision);
    let cpu = dev.is_cpu();
    let elem = precision.bytes();
    let micro = &dev.micro;

    // Local-memory staging plans with their algorithm options: GPUs
    // stage B (the paper's Tahiti winner) or both (enables PL); CPUs
    // stage nothing (§IV-A).
    let staging: &[(bool, bool, &[Algorithm])] = if cpu {
        &[(false, false, &[Algorithm::Ba])]
    } else {
        &[
            (false, true, &[Algorithm::Ba]),
            (true, true, &[Algorithm::Ba, Algorithm::Pl]),
            (false, false, &[Algorithm::Ba]),
        ]
    };

    // Vector widths the load unit / SIMD width admit outright, plus the
    // over-wide types the direct-A escape can still reward on GPUs.
    let vws: Vec<usize> = if cpu {
        let words = (elem / 4).max(1);
        [1usize, 2, 4, 8]
            .into_iter()
            .filter(|vw| vw * words >= micro.native_simd_lanes)
            .collect()
    } else {
        [2usize, 4, 8].into_iter().collect()
    };

    let mut out = Vec::new();
    for &(mdimc, ndimc) in &wg_shapes(dev) {
        for &(mwi, nwi) in &tiles(&feasible, precision) {
            let (mwg, nwg) = (mdimc * mwi, ndimc * nwi);
            for &kwg in &[64usize, 48, 32, 16] {
                for &kwi in &[2usize, 8] {
                    if !kwg.is_multiple_of(kwi) {
                        continue;
                    }
                    for &vw in &vws {
                        if !nwi.is_multiple_of(vw) {
                            continue;
                        }
                        for &(local_a, local_b, algs) in staging {
                            // Direct-A kernels can dodge the §III-B
                            // transaction amplification with a non-unit
                            // M stride; staged-A kernels dodge LDS bank
                            // conflicts the same way.
                            let strides: &[StrideMode] =
                                if local_a && vw * elem > micro.max_load_bytes {
                                    // Over-wide loads only pay off via the
                                    // direct-A escape; skip staged-A here.
                                    continue;
                                } else if cpu {
                                    &[StrideMode::Unit]
                                } else {
                                    &[StrideMode::Unit, StrideMode::NonUnit]
                                };
                            for &stride_m in strides {
                                for &algorithm in algs {
                                    out.push(KernelParams {
                                        mwg,
                                        nwg,
                                        kwg,
                                        mdimc,
                                        ndimc,
                                        kwi,
                                        mdima: mdimc,
                                        ndimb: ndimc,
                                        vw,
                                        stride_m,
                                        stride_n: StrideMode::Unit,
                                        local_a,
                                        local_b,
                                        layout_a: BlockLayout::Cbl,
                                        layout_b: BlockLayout::Cbl,
                                        algorithm,
                                        precision,
                                    });
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

/// Predict a ranked list of at most [`MAX_CANDIDATES`] parameter sets
/// for `(dev, precision)` with no search: construct the closed-form
/// candidates, keep the feasible ones, rank them with the timing model
/// at the stage-1 representative size.
#[must_use]
pub fn predict(dev: &DeviceSpec, precision: Precision) -> Vec<Prediction> {
    let feasible = FeasibleSet::derive(dev, precision);
    let base = stage1_base(dev);
    // The closed-form lists hold distinct values, so no candidate repeats.
    let mut preds: Vec<Prediction> = closed_form_candidates(dev, precision)
        .into_iter()
        .filter(|p| p.validate().is_ok() && feasible.admits(p))
        .filter_map(|p| {
            let g = measure_gflops(&p, dev, stage1_n(&p, base))?;
            Some(Prediction {
                params: p,
                gflops: g,
            })
        })
        .collect();
    preds.sort_by(|a, b| b.gflops.partial_cmp(&a.gflops).expect("finite gflops"));
    preds.truncate(MAX_CANDIDATES);
    preds
}

/// The single best prediction, or `None` when no closed-form candidate
/// is feasible (does not happen on the built-in profiles; callers fall
/// back to their legacy path).
#[must_use]
pub fn predict_best(dev: &DeviceSpec, precision: Precision) -> Option<Prediction> {
    predict(dev, precision).into_iter().next()
}

/// `true` unless `CLGEMM_PREDICT` is set to `off`/`0`/`false` — the
/// serve layer consults this on cache misses (mirrors the
/// `CLGEMM_SIMD` override convention, but read live because misses are
/// rare and tests toggle it).
#[must_use]
pub fn predict_enabled() -> bool {
    predict_enabled_in(std::env::var("CLGEMM_PREDICT").ok().as_deref())
}

/// Pure core of [`predict_enabled`], unit-testable without touching
/// process environment.
#[must_use]
pub fn predict_enabled_in(value: Option<&str>) -> bool {
    match value {
        None => true,
        Some(v) => !matches!(
            v.trim().to_ascii_lowercase().as_str(),
            "off" | "0" | "false"
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::tahiti_dgemm_best;
    use clgemm_device::DeviceId;

    #[test]
    fn paper_tahiti_winner_is_feasible() {
        let dev = DeviceId::Tahiti.spec();
        let f = FeasibleSet::derive(&dev, Precision::F64);
        assert_eq!(f.reject(&tahiti_dgemm_best()), None);
    }

    #[test]
    fn row_major_and_duplicate_strides_are_rejected() {
        let dev = DeviceId::Tahiti.spec();
        let f = FeasibleSet::derive(&dev, Precision::F64);
        let mut p = tahiti_dgemm_best();
        p.layout_a = BlockLayout::RowMajor;
        p.layout_b = BlockLayout::RowMajor;
        assert_eq!(f.reject(&p), Some(PruneReason::RowMajor));
        let mut p = tahiti_dgemm_best();
        p.stride_n = StrideMode::NonUnit;
        assert_eq!(f.reject(&p), Some(PruneReason::StrideDup));
    }

    #[test]
    fn misaligned_work_groups_are_rejected_on_gpus() {
        let dev = DeviceId::Tahiti.spec(); // wavefront 64
        let f = FeasibleSet::derive(&dev, Precision::F64);
        let mut p = tahiti_dgemm_best();
        p.mdimc = 8;
        p.ndimc = 6;
        p.mwg = 48;
        p.nwg = 12;
        p.mdima = 8;
        p.ndimb = 6;
        assert!(p.validate().is_ok());
        assert_eq!(f.reject(&p), Some(PruneReason::Wavefront));
    }

    #[test]
    fn non_canonical_loader_shapes_are_rejected() {
        let dev = DeviceId::Tahiti.spec();
        let f = FeasibleSet::derive(&dev, Precision::F64);
        let best = tahiti_dgemm_best();
        assert_eq!(f.reject(&best), None);
        // The 2·Ndimc sibling loads the same Kwg·Nwg block at the same
        // (vectorised) width — pure duplicate work in the model.
        let mut p = best;
        p.ndimb = p.ndimc * 2;
        assert!(p.validate().is_ok());
        assert_eq!(f.reject(&p), Some(PruneReason::LoaderShape));
    }

    #[test]
    fn cpu_rules_reject_locals_and_narrow_vectors() {
        let dev = DeviceId::SandyBridge.spec(); // 8 f32 lanes
        let f = FeasibleSet::derive(&dev, Precision::F32);
        let mut p = tahiti_dgemm_best();
        p.precision = Precision::F32;
        p.local_a = false;
        p.local_b = true;
        p.vw = 8;
        p.nwg = 128; // nwi = 8, divisible by 8
        assert_eq!(f.reject(&p), Some(PruneReason::CpuLocal));
        p.local_b = false;
        p.vw = 2;
        assert_eq!(f.reject(&p), Some(PruneReason::VectorWidth));
        p.vw = 8;
        assert_eq!(f.reject(&p), None);
    }

    #[test]
    fn predictions_are_ranked_feasible_and_bounded() {
        for id in DeviceId::ALL {
            let dev = id.spec();
            for precision in [Precision::F32, Precision::F64] {
                let preds = predict(&dev, precision);
                assert!(
                    !preds.is_empty() && preds.len() <= MAX_CANDIDATES,
                    "{id:?} {precision:?}: {} predictions",
                    preds.len()
                );
                let f = FeasibleSet::derive(&dev, precision);
                for w in preds.windows(2) {
                    assert!(w[0].gflops >= w[1].gflops);
                }
                for p in &preds {
                    p.params.validate().unwrap();
                    assert!(f.admits(&p.params), "{}", p.params.describe());
                    assert!(p.gflops > 0.0);
                }
            }
        }
    }

    #[test]
    fn cpu_predictions_use_no_local_memory_and_full_simd() {
        let dev = DeviceId::SandyBridge.spec();
        for precision in [Precision::F32, Precision::F64] {
            let words = (precision.bytes() / 4).max(1);
            for p in predict(&dev, precision) {
                assert!(!p.params.local_a && !p.params.local_b);
                assert!(p.params.vw * words >= dev.micro.native_simd_lanes);
            }
        }
    }

    #[test]
    fn env_override_parsing() {
        assert!(predict_enabled_in(None));
        assert!(predict_enabled_in(Some("on")));
        assert!(predict_enabled_in(Some("1")));
        assert!(!predict_enabled_in(Some("off")));
        assert!(!predict_enabled_in(Some("OFF ")));
        assert!(!predict_enabled_in(Some("0")));
        assert!(!predict_enabled_in(Some("false")));
    }
}
