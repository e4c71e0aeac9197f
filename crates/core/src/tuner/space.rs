//! Heuristic enumeration of the kernel parameter space.

use crate::params::{decided, knob, Algorithm, KernelParams, StrideMode};
use clgemm_blas::layout::BlockLayout;
use clgemm_blas::scalar::Precision;
use clgemm_device::{DeviceKind, DeviceSpec};

/// The (restrictable) candidate space. Every field lists the values one
/// knob may take; the candidate set is their cross product less the
/// points the tile cap or a rule of the parameter rule table rejects.
#[derive(Debug, Clone)]
pub struct SearchSpace {
    /// Work-group shapes `(MdimC, NdimC)`.
    pub wg_shapes: Vec<(usize, usize)>,
    /// Work-item tiles `(Mwi, Nwi)`.
    pub wi_tiles: Vec<(usize, usize)>,
    /// Depth blocking factors `Kwg`.
    pub kwg: Vec<usize>,
    /// Unroll factors `Kwi`.
    pub kwi: Vec<usize>,
    /// Vector widths.
    pub vw: Vec<usize>,
    /// Stride-mode combinations `(M, N)`.
    pub strides: Vec<(StrideMode, StrideMode)>,
    /// Local-memory usage combinations `(A, B)`.
    pub locals: Vec<(bool, bool)>,
    /// Layout combinations `(A, B)`.
    pub layouts: Vec<(BlockLayout, BlockLayout)>,
    /// Algorithms.
    pub algorithms: Vec<Algorithm>,
    /// Upper bound on `Mwg`/`Nwg` (tile footprint guard).
    pub max_wg_tile: usize,
}

impl SearchSpace {
    /// The default heuristic space for a device: work-group shapes are
    /// clipped to the device's maximum work-group size; CPUs drop the
    /// sub-wavefront shapes that only make sense on SIMT hardware and
    /// prefer larger vectors (implicit AVX vectorisation).
    #[must_use]
    pub fn for_device(dev: &DeviceSpec) -> SearchSpace {
        let gpu = dev.kind == DeviceKind::Gpu;
        let wg_shapes: Vec<(usize, usize)> = [
            (4, 4),
            (8, 4),
            (4, 8),
            (8, 8),
            (16, 4),
            (4, 16),
            (16, 8),
            (8, 16),
            (16, 16),
            (24, 4),
            (32, 8),
            (8, 32),
        ]
        .into_iter()
        .filter(|(m, n)| {
            let wg = m * n;
            wg <= dev.micro.max_wg_size
                && if gpu {
                    wg >= 32
                } else {
                    (8..=256).contains(&wg)
                }
        })
        .collect();
        SearchSpace {
            wg_shapes,
            wi_tiles: vec![
                (2, 2),
                (2, 4),
                (4, 2),
                (4, 4),
                (6, 2),
                (2, 6),
                (6, 6),
                (4, 8),
                (8, 4),
                (2, 8),
                (8, 8),
            ],
            kwg: vec![16, 32, 48, 64],
            kwi: vec![2, 8],
            vw: vec![1, 2, 4, 8],
            strides: vec![
                (StrideMode::Unit, StrideMode::Unit),
                (StrideMode::NonUnit, StrideMode::NonUnit),
                (StrideMode::NonUnit, StrideMode::Unit),
            ],
            locals: vec![(false, false), (false, true), (true, false), (true, true)],
            layouts: vec![
                (BlockLayout::Cbl, BlockLayout::Cbl),
                (BlockLayout::Cbl, BlockLayout::Rbl),
                (BlockLayout::RowMajor, BlockLayout::RowMajor),
            ],
            algorithms: Algorithm::ALL.to_vec(),
            max_wg_tile: 160,
        }
    }

    /// A heavily thinned space for unit/integration tests (hundreds of
    /// candidates rather than tens of thousands).
    #[must_use]
    pub fn smoke(dev: &DeviceSpec) -> SearchSpace {
        let mut s = SearchSpace::for_device(dev);
        s.wg_shapes
            .retain(|w| matches!(w, (8, 8) | (16, 8) | (16, 16)));
        s.wi_tiles
            .retain(|t| matches!(t, (2, 2) | (4, 4) | (6, 2) | (8, 8)));
        s.kwg = vec![16, 32];
        s.kwi = vec![2];
        // Keep the full vector-width axis: CPUs need wide vectors to fill
        // their SIMD lanes, and quick-mode searches should stay
        // representative there.
        s.vw = vec![1, 2, 4, 8];
        s.strides.truncate(2);
        s.layouts.truncate(2);
        s
    }

    /// Restrict to a single algorithm (the Fig. 8 ablation).
    #[must_use]
    pub fn with_algorithm(mut self, alg: Algorithm) -> SearchSpace {
        self.algorithms = vec![alg];
        // PL/DB require both operands staged in local memory.
        if alg != Algorithm::Ba {
            self.locals = vec![(true, true)];
        }
        self
    }

    /// Restrict local-memory usage (the §IV-A local-memory ablation).
    #[must_use]
    pub fn with_locals(mut self, locals: Vec<(bool, bool)>) -> SearchSpace {
        self.locals = locals;
        self.algorithms
            .retain(|a| *a == Algorithm::Ba || self.locals.contains(&(true, true)));
        self
    }

    /// Restrict layouts (the block-major ablation: row-major only).
    #[must_use]
    pub fn with_layouts(mut self, layouts: Vec<(BlockLayout, BlockLayout)>) -> SearchSpace {
        self.layouts = layouts;
        self
    }

    /// Enumerate all valid candidates for the device, in loop-nest order
    /// over the fields above, then the loader shapes. Each rule of the
    /// parameter rule table is checked at the first loop that fixes every
    /// knob it reads, pruning the subtree below it, so the innermost
    /// loops only push. Axes are walked in first-occurrence order with
    /// repeats skipped, and distinct axis values give distinct parameter
    /// sets (`Mwi = Mwg/MdimC`), so the output has no duplicates. Loader
    /// shapes `MdimA`/`NdimB` are chosen once per `Kwg`: the work-group's
    /// own extent for an unstaged operand, else the admitted siblings
    /// (that extent and twice it), else the first admitted divisor of the
    /// work-group size, so local-memory candidates are not lost.
    #[must_use]
    pub fn enumerate(&self, dev: &DeviceSpec, precision: Precision) -> Vec<KernelParams> {
        let mut out = Vec::new();
        // Each loop sets its knobs before any rule reads them and before
        // any candidate is pushed, so the starting values never show.
        let mut p = crate::params::tahiti_dgemm_best();
        p.precision = precision;
        for &(mdimc, ndimc) in distinct(&self.wg_shapes) {
            (p.mdimc, p.ndimc) = (mdimc, ndimc);
            if !p.satisfies(const { decided(0, WG) }, dev) {
                continue;
            }
            for &(mwi, nwi) in distinct(&self.wi_tiles) {
                (p.mwg, p.nwg) = (mdimc * mwi, ndimc * nwi);
                if p.mwg.max(p.nwg) > self.max_wg_tile
                    || !p.satisfies(const { decided(WG, TILE) }, dev)
                {
                    continue;
                }
                for &kwg in distinct(&self.kwg) {
                    p.kwg = kwg;
                    if !p.satisfies(const { decided(TILE, KWG) }, dev) {
                        continue;
                    }
                    let shapes = [Operand::A, Operand::B].map(|side| side.shapes(&p, dev));
                    for &kwi in distinct(&self.kwi) {
                        p.kwi = kwi;
                        if !p.satisfies(const { decided(KWG, KWI) }, dev) {
                            continue;
                        }
                        for &vw in distinct(&self.vw) {
                            p.vw = vw;
                            if !p.satisfies(const { decided(KWI, VW) }, dev) {
                                continue;
                            }
                            for &(sm, sn) in distinct(&self.strides) {
                                (p.stride_m, p.stride_n) = (sm, sn);
                                for &(la, lb) in distinct(&self.layouts) {
                                    (p.layout_a, p.layout_b) = (la, lb);
                                    for &alg in distinct(&self.algorithms) {
                                        p.algorithm = alg;
                                        for &(loc_a, loc_b) in distinct(&self.locals) {
                                            (p.local_a, p.local_b) = (loc_a, loc_b);
                                            if !p.satisfies(const { decided(VW, LOCALS) }, dev) {
                                                continue;
                                            }
                                            let ma = shapes[0][usize::from(loc_a)];
                                            let nb = shapes[1][usize::from(loc_b)];
                                            for mdima in ma.into_iter().flatten() {
                                                for ndimb in nb.into_iter().flatten() {
                                                    out.push(KernelParams { mdima, ndimb, ..p });
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
}

// The knobs a rule can read that are fixed once each loop of `enumerate`
// has set its own; the stride, layout and algorithm loops decide no rule.
// Loader shapes are chosen per `Kwg` with their operand's staging flag,
// so a rule reading one may read no other knob a later loop sets.
const WG: u16 = knob::PRECISION | knob::MDIMC | knob::NDIMC;
const TILE: u16 = WG | knob::MWG | knob::NWG;
const KWG: u16 = TILE | knob::KWG;
const KWI: u16 = KWG | knob::KWI;
const VW: u16 = KWI | knob::VW;
const LOCALS: u16 = VW | knob::ALGORITHM | knob::LOCAL_A | knob::LOCAL_B;
const _: () = assert!(
    LOCALS | knob::MDIMA | knob::NDIMB == knob::ALL
        && decided(VW, VW | knob::ALGORITHM) == 0
        && LOADS[0] & !decided(0, KWG | knob::LOCAL_A | knob::MDIMA) == 0
        && LOADS[1] & !decided(0, KWG | knob::LOCAL_B | knob::NDIMB) == 0
);

/// The values of one axis in first-occurrence order, repeats skipped.
fn distinct<T: PartialEq>(axis: &[T]) -> impl Iterator<Item = &T> {
    axis.iter()
        .enumerate()
        .filter_map(|(i, v)| (!axis[..i].contains(v)).then_some(v))
}

/// The operand a local-memory loader stages: A (`MdimA` over `Mwg`) or
/// B (`NdimB` over `Nwg`).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Operand {
    A,
    B,
}

/// The rules that read the loader shape of A, and of B.
const LOADS: [u32; 2] = [
    decided(knob::ALL & !knob::MDIMA, knob::ALL),
    decided(knob::ALL & !knob::NDIMB, knob::ALL),
];

impl Operand {
    /// `Some(dim)` when the rules admit loader shape `dim` for this
    /// operand of `p`, staged in local memory or not.
    fn admit(self, p: &KernelParams, dim: usize, staged: bool, dev: &DeviceSpec) -> Option<usize> {
        let mut q = *p;
        match self {
            Operand::A => (q.mdima, q.local_a) = (dim, staged),
            Operand::B => (q.ndimb, q.local_b) = (dim, staged),
        }
        q.satisfies(LOADS[self as usize], dev).then_some(dim)
    }

    /// The work-group's extent along this operand: `MdimC` or `NdimC`.
    fn dimc(self, p: &KernelParams) -> usize {
        [p.mdimc, p.ndimc][self as usize]
    }

    /// The sibling loader shapes the space offers this operand of `p`
    /// when staged: the work-group's extent along it and twice that,
    /// each kept when the rules admit it.
    pub(crate) fn siblings(self, p: &KernelParams, dev: &DeviceSpec) -> [Option<usize>; 2] {
        [1, 2].map(|k| self.admit(p, k * self.dimc(p), true, dev))
    }

    /// The loader shapes `enumerate` offers this operand of `p`, indexed
    /// by whether it is staged (see [`SearchSpace::enumerate`]).
    fn shapes(self, p: &KernelParams, dev: &DeviceSpec) -> [[Option<usize>; 2]; 2] {
        let mut staged = self.siblings(p, dev);
        if staged == [None, None] {
            staged[0] = [4, 8, 16, 32, 64]
                .into_iter()
                .find_map(|d| self.admit(p, d, true, dev));
        }
        [[self.admit(p, self.dimc(p), false, dev), None], staged]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clgemm_device::DeviceId;

    #[test]
    fn default_space_is_tens_of_thousands_on_gpus() {
        let dev = DeviceId::Tahiti.spec();
        let space = SearchSpace::for_device(&dev);
        let n = space.enumerate(&dev, Precision::F64).len();
        assert!(
            (10_000..=500_000).contains(&n),
            "expected tens of thousands of candidates, got {n}"
        );
    }

    #[test]
    fn all_enumerated_candidates_are_valid() {
        let dev = DeviceId::Fermi.spec();
        let space = SearchSpace::smoke(&dev);
        let cands = space.enumerate(&dev, Precision::F32);
        assert!(!cands.is_empty());
        for c in &cands {
            c.validate().unwrap_or_else(|e| panic!("{e}: {c:?}"));
            assert!(c.lds_bytes() <= dev.local_mem_bytes());
        }
    }

    #[test]
    fn enumeration_is_duplicate_free() {
        let dev = DeviceId::Cayman.spec();
        let space = SearchSpace::smoke(&dev);
        let cands = space.enumerate(&dev, Precision::F64);
        let set: std::collections::HashSet<_> = cands.iter().collect();
        assert_eq!(set.len(), cands.len());
    }

    #[test]
    fn algorithm_restriction_propagates() {
        let dev = DeviceId::Tahiti.spec();
        let space = SearchSpace::smoke(&dev).with_algorithm(Algorithm::Pl);
        let cands = space.enumerate(&dev, Precision::F64);
        assert!(!cands.is_empty());
        assert!(cands
            .iter()
            .all(|c| c.algorithm == Algorithm::Pl && c.local_a && c.local_b));
    }

    #[test]
    fn cpu_space_respects_work_group_limits() {
        let dev = DeviceId::SandyBridge.spec();
        let space = SearchSpace::for_device(&dev);
        let cands = space.enumerate(&dev, Precision::F64);
        assert!(!cands.is_empty());
        assert!(cands.iter().all(|c| c.wg_size() <= 256));
    }

    #[test]
    fn amd_gpu_space_respects_256_wg_cap() {
        let dev = DeviceId::Tahiti.spec();
        let space = SearchSpace::for_device(&dev);
        assert!(space.wg_shapes.iter().all(|(m, n)| m * n <= 256));
    }

    #[test]
    fn layout_restriction_works() {
        let dev = DeviceId::Tahiti.spec();
        let space = SearchSpace::smoke(&dev)
            .with_layouts(vec![(BlockLayout::RowMajor, BlockLayout::RowMajor)]);
        let cands = space.enumerate(&dev, Precision::F64);
        assert!(cands
            .iter()
            .all(|c| c.layout_a == BlockLayout::RowMajor && c.layout_b == BlockLayout::RowMajor));
    }
}
