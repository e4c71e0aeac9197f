//! The host microkernel's register tile, derived from the build.
//!
//! The tuned blocking `Mwi × Nwi` was chosen by the search engine for an
//! OpenCL *device*; the host microkernel in [`crate::executor`] executes
//! the same arithmetic on the CPU the process runs on, whose profitable
//! register tile follows the vector width and register count of the code
//! the compiler emits instead (the paper's §III-B observation, applied to
//! the host). The tile is therefore a function of the precision and the
//! build alone: [`microkernel_tile`] fills the vector register file with
//! accumulators, one row of `B` vectors and one broadcast `A` element,
//! taking the shape with the most FMAs per loaded value. The routine
//! bench sweeps the alternatives, and its smoke gate holds the chosen
//! shape to a measured speed.
//!
//! [`TileDecision`] records the tuned blocking next to the tile that ran;
//! it rides on `GemmRun` all the way to the serving layer's per-worker
//! substitution counts. The tile never changes numerics: every `C`
//! element sees the identical ascending-depth FMA chain whatever the
//! shape (see [`crate::executor::run_panels`]).

use clgemm_blas::scalar::Precision;

/// Bits per vector register in the code this build emits. LLVM keeps
/// AVX-512 builds on 256-bit vectors for the cores it tunes with its
/// `prefer-256-bit` preference (the Intel AVX-512 server cores among
/// them; the kernels' `vfmadd`s come out as ymm, not zmm), so an AVX-512
/// build counts as 256 bits. Zero when the build emits no vectors.
pub const VECTOR_BITS: usize = if cfg!(target_feature = "avx") {
    256
} else if cfg!(any(target_feature = "sse2", target_feature = "neon")) {
    128
} else {
    0
};

/// Vector registers the build can allocate: 32 with AVX-512 (its EVEX
/// encoding reaches ymm16–31) and on AArch64, 16 otherwise.
pub const VECTOR_REGISTERS: usize =
    if cfg!(any(target_feature = "avx512f", target_arch = "aarch64")) {
        32
    } else {
        16
    };

/// FMA lanes per emitted vector register at `precision`; one when the
/// build emits no vectors of that width.
#[must_use]
pub const fn lanes(precision: Precision) -> usize {
    let bits = match precision {
        Precision::F32 => 32,
        Precision::F64 => 64,
    };
    if VECTOR_BITS >= bits {
        VECTOR_BITS / bits
    } else {
        1
    }
}

/// A register-tile shape: `mr` rows by `nr` columns of `C`, with `nr`
/// the vectorised direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Tile {
    mr: usize,
    nr: usize,
}

impl Tile {
    /// An `mr × nr` tile; `None` when an edge is zero.
    #[must_use]
    pub const fn new(mr: usize, nr: usize) -> Option<Tile> {
        if mr >= 1 && nr >= 1 {
            Some(Tile { mr, nr })
        } else {
            None
        }
    }

    /// Rows of `C` per register tile.
    #[must_use]
    pub const fn mr(self) -> usize {
        self.mr
    }

    /// Columns of `C` per register tile (the vectorised direction).
    #[must_use]
    pub const fn nr(self) -> usize {
        self.nr
    }

    /// Both edges as a pair.
    #[must_use]
    pub const fn dims(self) -> (usize, usize) {
        (self.mr, self.nr)
    }

    /// Vector registers the tile occupies at `lanes` lanes: its
    /// accumulators, one row of `B` vectors and one broadcast `A`
    /// element.
    #[must_use]
    pub const fn registers(self, lanes: usize) -> usize {
        let nv = self.nr.div_ceil(lanes);
        self.mr * nv + nv + 1
    }
}

impl std::fmt::Display for Tile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x{}", self.mr, self.nr)
    }
}

/// The register tile for `lanes`-wide vectors and `registers` vector
/// registers. Each candidate is `nv` vectors wide (`nv` in 1, 2, 4) and
/// as tall as the registers left after its `B` row and the broadcast
/// allow; the one with the most FMAs per loaded value, `mr·nv / (mr +
/// nv)`, wins. 32 registers give `6 × 4·lanes`, 16 give `6 × 2·lanes`.
#[must_use]
pub const fn register_tile(lanes: usize, registers: usize) -> Tile {
    let (mut mr, mut nv) = (1, 1);
    let mut cand = 1;
    while cand <= 4 {
        if registers > 2 * cand {
            let rows = (registers - cand - 1) / cand;
            if rows * cand * (mr + nv) > mr * nv * (rows + cand) {
                (mr, nv) = (rows, cand);
            }
        }
        cand *= 2;
    }
    Tile { mr, nr: nv * lanes }
}

/// The tile the host microkernel runs at `precision` in this build.
#[must_use]
pub const fn microkernel_tile(precision: Precision) -> Tile {
    register_tile(lanes(precision), VECTOR_REGISTERS)
}

/// The tuned blocking of one call next to the register tile that ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TileDecision {
    /// The tuned `(Mwi, Nwi)` blocking the request arrived with.
    pub tuned: (usize, usize),
    /// The register tile the microkernel executes.
    pub tile: Tile,
    /// FMA lanes per emitted vector register at the call's precision.
    pub lanes: usize,
}

impl TileDecision {
    /// The decision for a call at `precision` with a tuned blocking.
    #[must_use]
    pub const fn new(precision: Precision, tuned: (usize, usize)) -> TileDecision {
        TileDecision {
            tuned,
            tile: microkernel_tile(precision),
            lanes: lanes(precision),
        }
    }

    /// `true` when the executed tile differs from the tuned blocking.
    #[must_use]
    pub fn substituted(self) -> bool {
        self.tile.dims() != self.tuned
    }
}

impl std::fmt::Display for TileDecision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}x{} -> {} ({} lanes)",
            self.tuned.0, self.tuned.1, self.tile, self.lanes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidate_tables_are_valid_and_lane_aligned() {
        // Every tile the derivation can produce, across the vector widths
        // and register files it may meet, fits its register budget and
        // fills whole vectors.
        for lanes in [1usize, 2, 4, 8, 16] {
            for registers in [16usize, 32] {
                let t = register_tile(lanes, registers);
                assert!(Tile::new(t.mr(), t.nr()).is_some(), "{t}");
                assert_eq!(t.nr() % lanes, 0, "{t} not aligned to {lanes} lanes");
                assert!(
                    t.registers(lanes) <= registers,
                    "{t} needs {} of {registers} registers",
                    t.registers(lanes)
                );
            }
        }
        assert_eq!(register_tile(8, 32).dims(), (6, 32));
        assert_eq!(register_tile(4, 32).dims(), (6, 16));
        assert_eq!(register_tile(8, 16).dims(), (6, 16));
    }

    #[test]
    fn oversize_blocking_is_substituted_and_reported() {
        // A tuned 32×8 blocking cannot run as a register tile; the
        // decision records it next to the tile that did.
        let d = TileDecision::new(Precision::F32, (32, 8));
        assert!(d.substituted());
        assert_eq!(d.tuned, (32, 8));
        assert_eq!(d.tile, microkernel_tile(Precision::F32));
        assert!(d.tile.registers(d.lanes) <= VECTOR_REGISTERS);
    }

    #[test]
    fn tuned_blocking_runs_verbatim_when_aligned() {
        // A tuned blocking equal to the build's tile runs as tuned, and
        // the decision reports no substitution.
        for precision in [Precision::F32, Precision::F64] {
            let t = microkernel_tile(precision);
            let d = TileDecision::new(precision, t.dims());
            assert_eq!(d.tile.dims(), d.tuned);
            assert!(!d.substituted());
        }
    }

    #[test]
    fn misaligned_blocking_is_realigned() {
        // 6×2 fits the budget but wastes a vector; the executed tile
        // fills whole vectors.
        let d = TileDecision::new(Precision::F32, (6, 2));
        assert_eq!(d.tile.nr() % d.lanes, 0);
        assert_eq!(d.substituted(), d.tile.dims() != (6, 2));
    }

    #[test]
    fn precision_selects_the_lane_bank() {
        assert!(lanes(Precision::F32) >= lanes(Precision::F64));
        for precision in [Precision::F32, Precision::F64] {
            let d = TileDecision::new(precision, (4, 4));
            assert_eq!(d.lanes, lanes(precision));
            assert_eq!(d.tile, register_tile(d.lanes, VECTOR_REGISTERS));
            assert_eq!(
                d.to_string(),
                format!("4x4 -> {} ({} lanes)", d.tile, d.lanes)
            );
        }
    }

    #[test]
    fn tiny_problems_still_get_a_tile() {
        // The tile depends on the precision and the build, never on the
        // problem: a 1×1×1 call runs the full tile, all of it fringe, and
        // reports it.
        use crate::params::small_test_params;
        use crate::routine::TunedGemm;
        use clgemm_blas::matrix::{Matrix, StorageOrder};
        use clgemm_blas::GemmType;
        let tg = TunedGemm::new(
            clgemm_device::DeviceId::Tahiti.spec(),
            small_test_params(Precision::F64),
            small_test_params(Precision::F32),
        );
        let a = Matrix::<f32>::from_fn(1, 1, StorageOrder::ColMajor, |_, _| 3.0);
        let b = Matrix::<f32>::from_fn(1, 1, StorageOrder::ColMajor, |_, _| 0.5);
        let mut c = Matrix::<f32>::from_fn(1, 1, StorageOrder::ColMajor, |_, _| 2.0);
        let run = tg.gemm(GemmType::NN, 2.0, &a, &b, 0.25, &mut c);
        let p = small_test_params(Precision::F32);
        let d = run.tile.expect("a fast call reports its tile");
        assert_eq!(d, TileDecision::new(Precision::F32, (p.mwi(), p.nwi())));
        assert_eq!(c.at(0, 0), 3.5);
    }
}
