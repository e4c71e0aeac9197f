//! The kernel parameter space of §III.
//!
//! A [`KernelParams`] value is one point in the tuner's search space: the
//! eight blocking-related parameters, the vector width, the stride modes,
//! local-memory usage, the two matrix layouts and the algorithm choice.
//! Every validity rule (the paper generator's divisibility constraints
//! and the device capacities) is stated once, in one table of predicates
//! over the knobs each reads, which [`KernelParams::validate`] and the
//! tuner's enumerator both walk. The derived quantities (work-item
//! blocking factors, loader shapes, resource estimates) are computed here
//! so the code generator, the launch-profile builder and the native
//! executor all agree on them.

use clgemm_blas::layout::BlockLayout;
use clgemm_blas::scalar::Precision;
use clgemm_device::DeviceSpec;
use clgemm_shim::{Json, JsonError};

/// Whether a work-item's C elements are adjacent (unit stride) or
/// interleaved across the work-group (non-unit stride, §III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StrideMode {
    Unit,
    NonUnit,
}

impl StrideMode {
    /// Tag used in parameter tables (matching Table II's "Stride" row
    /// convention: the row lists the directions using non-unit access).
    #[must_use]
    pub fn is_non_unit(self) -> bool {
        matches!(self, StrideMode::NonUnit)
    }
}

/// One of the three GEMM algorithms of §III-E.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Basic algorithm (Fig. 4), after Volkov & Demmel.
    Ba,
    /// Software pipelining (Fig. 5), after the MAGMA Fermi GEMM.
    Pl,
    /// Double buffering (Fig. 6), after Tan et al.
    Db,
}

impl Algorithm {
    /// All algorithms.
    pub const ALL: [Algorithm; 3] = [Algorithm::Ba, Algorithm::Pl, Algorithm::Db];

    /// Paper tag ("BA"/"PL"/"DB").
    #[must_use]
    pub fn tag(self) -> &'static str {
        match self {
            Algorithm::Ba => "BA",
            Algorithm::Pl => "PL",
            Algorithm::Db => "DB",
        }
    }

    /// Barriers per outer-loop iteration.
    #[must_use]
    pub fn barriers_per_iter(self) -> f64 {
        match self {
            Algorithm::Ba => 2.0,
            Algorithm::Pl => 3.0,
            // DB issues two barriers per *pair* of Kwg blocks.
            Algorithm::Db => 1.0,
        }
    }

    /// Per-iteration non-overlappable global-latency weight (the whole
    /// point of PL/DB is overlapping the next block's loads with the
    /// current block's arithmetic).
    #[must_use]
    pub fn serial_latency_factor(self) -> f64 {
        match self {
            Algorithm::Ba => 1.0,
            Algorithm::Pl => 0.35,
            Algorithm::Db => 0.5,
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.tag())
    }
}

impl std::str::FromStr for Algorithm {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_uppercase().as_str() {
            "BA" => Ok(Algorithm::Ba),
            "PL" => Ok(Algorithm::Pl),
            "DB" => Ok(Algorithm::Db),
            other => Err(format!("unknown algorithm {other:?}")),
        }
    }
}

/// A full parameter set for the `C ← α·Aᵀ·B + β·C` kernel generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KernelParams {
    /// Work-group blocking factors (§III-A).
    pub mwg: usize,
    pub nwg: usize,
    pub kwg: usize,
    /// Work-group shape; `Mwi = Mwg/MdimC`, `Nwi = Nwg/NdimC`.
    pub mdimc: usize,
    pub ndimc: usize,
    /// Inner-loop unroll factor (§III-A).
    pub kwi: usize,
    /// Local-memory loader reshape (§III-C): `KdimA = wg/MdimA`,
    /// `KdimB = wg/NdimB`.
    pub mdima: usize,
    pub ndimb: usize,
    /// Vector width (§III-B), applied along the N direction for C/B and
    /// along M for A.
    pub vw: usize,
    /// Stride modes (§III-B).
    pub stride_m: StrideMode,
    pub stride_n: StrideMode,
    /// Local-memory staging for each operand (§III-C).
    pub local_a: bool,
    pub local_b: bool,
    /// Packed data layouts (§III-D).
    pub layout_a: BlockLayout,
    pub layout_b: BlockLayout,
    /// Algorithm (§III-E).
    pub algorithm: Algorithm,
    /// Kernel precision.
    pub precision: Precision,
}

/// Why a parameter set is invalid (would fail "code generation" in the
/// paper's pipeline).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamError(pub String);

impl std::fmt::Display for ParamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid kernel parameters: {}", self.0)
    }
}

impl std::error::Error for ParamError {}

impl KernelParams {
    /// Work-group size in work-items.
    #[must_use]
    pub fn wg_size(&self) -> usize {
        self.mdimc * self.ndimc
    }

    /// Work-item blocking factor in M.
    #[must_use]
    pub fn mwi(&self) -> usize {
        self.mwg / self.mdimc
    }

    /// Work-item blocking factor in N.
    #[must_use]
    pub fn nwi(&self) -> usize {
        self.nwg / self.ndimc
    }

    /// Loader depth `KdimA` (derived, §III-C).
    #[must_use]
    pub fn kdima(&self) -> usize {
        self.wg_size() / self.mdima
    }

    /// Loader depth `KdimB`.
    #[must_use]
    pub fn kdimb(&self) -> usize {
        self.wg_size() / self.ndimb
    }

    /// Per-loader element counts `MwiA`, `KwiA`, `KwiB`, `NwiB`.
    #[must_use]
    pub fn mwia(&self) -> usize {
        self.mwg / self.mdima
    }

    #[must_use]
    pub fn kwia(&self) -> usize {
        self.kwg / self.kdima()
    }

    #[must_use]
    pub fn kwib(&self) -> usize {
        self.kwg / self.kdimb()
    }

    #[must_use]
    pub fn nwib(&self) -> usize {
        self.nwg / self.ndimb
    }

    /// `true` when the A loader can use width-`vw` vector loads.
    #[must_use]
    pub fn loader_a_vec(&self) -> bool {
        self.local_a && self.mwg.is_multiple_of(self.mdima * self.vw)
    }

    /// `true` when the B loader can use width-`vw` vector loads.
    #[must_use]
    pub fn loader_b_vec(&self) -> bool {
        self.local_b && self.nwg.is_multiple_of(self.ndimb * self.vw)
    }

    /// `true` when direct (non-local) A loads can be vectorised: rows per
    /// work-item are adjacent and divisible by `vw`.
    #[must_use]
    pub fn direct_a_vec(&self) -> bool {
        !self.local_a && self.stride_m == StrideMode::Unit && self.mwi().is_multiple_of(self.vw)
    }

    /// `true` when compute-phase reads of A (from local memory or global)
    /// are vectorised along M.
    #[must_use]
    pub fn read_a_vec(&self) -> bool {
        self.stride_m == StrideMode::Unit && self.mwi().is_multiple_of(self.vw)
    }

    /// Element size in bytes.
    #[must_use]
    pub fn elem_bytes(&self) -> usize {
        self.precision.bytes()
    }

    /// Local-memory bytes per work-group the generated kernel allocates.
    #[must_use]
    pub fn lds_bytes(&self) -> usize {
        let e = self.elem_bytes();
        let db = if self.algorithm == Algorithm::Db {
            2
        } else {
            1
        };
        let a = if self.local_a {
            db * self.kwg * self.mwg * e
        } else {
            0
        };
        let b = if self.local_b {
            db * self.kwg * self.nwg * e
        } else {
            0
        };
        a + b
    }

    /// Estimated 32-bit register slots per work-item: accumulators,
    /// staging registers, PL prefetch registers, plus addressing
    /// overhead. This is the occupancy input of §III-E.
    #[must_use]
    pub fn regs_per_wi(&self) -> usize {
        let words = self.elem_bytes() / 4;
        let acc = self.mwi() * self.nwi();
        // Staged operands have short live ranges (loaded, multiplied,
        // dead); compilers reuse their registers across unroll steps, so
        // the live set stops growing after a few Kwi steps.
        let staging = self.kwi.min(4) * (self.mwi() + self.nwi());
        // A loader stages `Wwg·Kwg / wg` elements per work-item whatever
        // its shape, so the estimate reads no loader knob.
        let staged = |on: bool, wwg: usize| usize::from(on) * wwg * self.kwg / self.wg_size();
        let prefetch = if self.algorithm == Algorithm::Pl {
            staged(self.local_a, self.mwg) + staged(self.local_b, self.nwg)
        } else {
            0
        };
        (acc + staging + prefetch) * words + 24
    }

    /// The problem-size granularity in K this kernel requires (`Kwg`, or
    /// `2·Kwg` for the double-buffered algorithm whose main loop is
    /// unrolled by two blocks).
    #[must_use]
    pub fn k_multiple(&self) -> usize {
        match self.algorithm {
            Algorithm::Db => 2 * self.kwg,
            _ => self.kwg,
        }
    }

    /// Least common multiple of the work-group blocking factors — the
    /// paper sizes its search problems as multiples of this.
    #[must_use]
    pub fn lcm_block(&self) -> usize {
        lcm(lcm(self.mwg, self.nwg), self.k_multiple())
    }

    /// Validate all structural constraints. A set that fails here would
    /// "fail in code generation" in the paper's pipeline and is not
    /// counted among tested variants. Reports the first structural rule
    /// of the rule table that fails.
    pub fn validate(&self) -> Result<(), ParamError> {
        for Rule(_, check) in &RULES {
            if let Check::Param(holds, message) = check {
                if !holds(self) {
                    return Err(ParamError(message(self)));
                }
            }
        }
        Ok(())
    }

    /// `true` when every rule in `rules`, a bit set over the rule table
    /// (see [`decided`]), holds for this set on `dev`.
    pub(crate) fn satisfies(&self, rules: u32, dev: &DeviceSpec) -> bool {
        let mut bits = rules;
        while bits != 0 {
            match RULES[bits.trailing_zeros() as usize].1 {
                Check::Param(holds, _) if !holds(self) => return false,
                Check::Device(fits) if !fits(self, dev) => return false,
                _ => bits &= bits - 1,
            }
        }
        true
    }

    /// A compact one-line description in the paper's Table II style.
    #[must_use]
    pub fn describe(&self) -> String {
        let shared = match (self.local_a, self.local_b) {
            (true, true) => "A,B",
            (true, false) => "A",
            (false, true) => "B",
            (false, false) => "-",
        };
        let stride = match (self.stride_m.is_non_unit(), self.stride_n.is_non_unit()) {
            (true, true) => "M,N",
            (true, false) => "M",
            (false, true) => "N",
            (false, false) => "-",
        };
        format!(
            "Mwg,Nwg,Kwg={},{},{} Mwi,Nwi,Kwi={},{},{} dimC={}x{} dimA={}x{} dimB={}x{} vw={} stride={} shared={} layout={},{} alg={}",
            self.mwg,
            self.nwg,
            self.kwg,
            self.mwi(),
            self.nwi(),
            self.kwi,
            self.mdimc,
            self.ndimc,
            self.mdima,
            self.kdima(),
            self.kdimb(),
            self.ndimb,
            self.vw,
            stride,
            shared,
            self.layout_a.tag(),
            self.layout_b.tag(),
            self.algorithm
        )
    }
}

/// Knob bits: the knobs of a [`KernelParams`] a validity rule reads.
/// Stride modes and layouts have none because no rule reads them.
pub(crate) mod knob {
    pub(crate) const MWG: u16 = 1;
    pub(crate) const NWG: u16 = 1 << 1;
    pub(crate) const KWG: u16 = 1 << 2;
    pub(crate) const MDIMC: u16 = 1 << 3;
    pub(crate) const NDIMC: u16 = 1 << 4;
    pub(crate) const KWI: u16 = 1 << 5;
    pub(crate) const MDIMA: u16 = 1 << 6;
    pub(crate) const NDIMB: u16 = 1 << 7;
    pub(crate) const VW: u16 = 1 << 8;
    pub(crate) const LOCAL_A: u16 = 1 << 9;
    pub(crate) const LOCAL_B: u16 = 1 << 10;
    pub(crate) const ALGORITHM: u16 = 1 << 11;
    pub(crate) const PRECISION: u16 = 1 << 12;
    pub(crate) const ALL: u16 = (1 << 13) - 1;
}

/// How a [`Rule`] decides.
enum Check {
    /// A structural rule, and the message `validate` reports when it fails.
    Param(fn(&KernelParams) -> bool, fn(&KernelParams) -> String),
    /// A device capacity, which `validate` does not check.
    Device(fn(&KernelParams, &DeviceSpec) -> bool),
}

/// One validity rule: a predicate over the knobs in its bit set.
struct Rule(u16, Check);

/// `rule!(knobs, |p| holds => message…)` states a structural rule and
/// `rule!(knobs, |p, dev| holds)` a device capacity.
macro_rules! rule {
    ($reads:expr, |$p:ident| $holds:expr => $msg:literal) => {
        Rule($reads, Check::Param(|$p| $holds, |_| String::from($msg)))
    };
    ($reads:expr, |$p:ident| $holds:expr => $($msg:expr),+) => {
        Rule($reads, Check::Param(|$p| $holds, |$p| format!($($msg),+)))
    };
    ($reads:expr, |$p:ident, $dev:ident| $holds:expr) => {
        Rule($reads, Check::Device(|$p, $dev| $holds))
    };
}

/// Every validity rule, stated once: the structural rules in the order
/// [`KernelParams::validate`] reports them, then the device capacities.
/// A rule may divide by a knob an earlier rule proves positive if that
/// rule reads no knob this one does not: `validate` and the enumerator
/// (which checks each rule at the first loop fixing its knobs) then
/// check the divisor first.
const RULES: [Rule; 25] = {
    use knob::*;
    const WG: u16 = MDIMC | NDIMC;
    [
        rule!(MWG, |p| p.mwg > 0 => "Mwg must be positive"),
        rule!(NWG, |p| p.nwg > 0 => "Nwg must be positive"),
        rule!(KWG, |p| p.kwg > 0 => "Kwg must be positive"),
        rule!(MDIMC, |p| p.mdimc > 0 => "MdimC must be positive"),
        rule!(NDIMC, |p| p.ndimc > 0 => "NdimC must be positive"),
        rule!(KWI, |p| p.kwi > 0 => "Kwi must be positive"),
        rule!(MDIMA, |p| p.mdima > 0 => "MdimA must be positive"),
        rule!(NDIMB, |p| p.ndimb > 0 => "NdimB must be positive"),
        rule!(VW, |p| p.vw > 0 => "vw must be positive"),
        rule!(VW, |p| matches!(p.vw, 1 | 2 | 4 | 8)
            => "vector width {} not in {{1,2,4,8}}", p.vw),
        rule!(MWG | MDIMC, |p| p.mwg.is_multiple_of(p.mdimc)
            => "Mwg {} not divisible by MdimC {}", p.mwg, p.mdimc),
        rule!(NWG | NDIMC, |p| p.nwg.is_multiple_of(p.ndimc)
            => "Nwg {} not divisible by NdimC {}", p.nwg, p.ndimc),
        rule!(KWG | KWI, |p| p.kwg.is_multiple_of(p.kwi)
            => "Kwg {} not divisible by Kwi {}", p.kwg, p.kwi),
        rule!(NWG | NDIMC | VW, |p| p.nwi().is_multiple_of(p.vw)
            => "Nwi {} not divisible by vector width {}", p.nwi(), p.vw),
        rule!(WG, |p| p.wg_size() <= 1024
            => "work-group size {} exceeds 1024", p.wg_size()),
        rule!(LOCAL_A | WG | MDIMA, |p| !p.local_a || p.wg_size().is_multiple_of(p.mdima)
            => "work-group size {} not divisible by MdimA {}", p.wg_size(), p.mdima),
        rule!(LOCAL_A | MWG | MDIMA, |p| !p.local_a || p.mwg.is_multiple_of(p.mdima)
            => "Mwg {} not divisible by MdimA {}", p.mwg, p.mdima),
        rule!(LOCAL_A | KWG | WG | MDIMA, |p| !p.local_a || p.kwg.is_multiple_of(p.kdima())
            => "Kwg {} not divisible by KdimA {}", p.kwg, p.kdima()),
        rule!(LOCAL_B | WG | NDIMB, |p| !p.local_b || p.wg_size().is_multiple_of(p.ndimb)
            => "work-group size {} not divisible by NdimB {}", p.wg_size(), p.ndimb),
        rule!(LOCAL_B | NWG | NDIMB, |p| !p.local_b || p.nwg.is_multiple_of(p.ndimb)
            => "Nwg {} not divisible by NdimB {}", p.nwg, p.ndimb),
        rule!(LOCAL_B | KWG | WG | NDIMB, |p| !p.local_b || p.kwg.is_multiple_of(p.kdimb())
            => "Kwg {} not divisible by KdimB {}", p.kwg, p.kdimb()),
        rule!(ALGORITHM | LOCAL_A | LOCAL_B,
            |p| p.algorithm == Algorithm::Ba || (p.local_a && p.local_b)
            => "algorithm {} requires local memory for both matrices", p.algorithm),
        rule!(WG, |p, dev| p.wg_size() <= dev.micro.max_wg_size),
        rule!(
            MWG | NWG | KWG | LOCAL_A | LOCAL_B | ALGORITHM | PRECISION,
            |p, dev| p.lds_bytes() <= dev.local_mem_bytes()
        ),
        // The register estimate leaves room for one resident work-group.
        rule!(
            MWG | NWG | KWG | WG | KWI | LOCAL_A | LOCAL_B | ALGORITHM | PRECISION,
            |p, dev| p.regs_per_wi() * p.wg_size() <= dev.micro.regs_per_cu
        ),
    ]
};

/// The rules, as a bit set over the rule table, whose knobs all lie in
/// `fixed` but not all in `before`: the rules that a loop fixing the
/// knobs of `fixed` beyond `before` is the first able to decide.
pub(crate) const fn decided(before: u16, fixed: u16) -> u32 {
    let mut bits = 0;
    let mut i = 0;
    while i < RULES.len() {
        let reads = RULES[i].0;
        if reads & !fixed == 0 && reads & !before != 0 {
            bits |= 1 << i;
        }
        i += 1;
    }
    bits
}

impl KernelParams {
    /// JSON encoding used by [`crate::repo::KernelRepo`] persistence.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("mwg", Json::from(self.mwg)),
            ("nwg", Json::from(self.nwg)),
            ("kwg", Json::from(self.kwg)),
            ("mdimc", Json::from(self.mdimc)),
            ("ndimc", Json::from(self.ndimc)),
            ("kwi", Json::from(self.kwi)),
            ("mdima", Json::from(self.mdima)),
            ("ndimb", Json::from(self.ndimb)),
            ("vw", Json::from(self.vw)),
            ("stride_m", Json::from(self.stride_m.is_non_unit())),
            ("stride_n", Json::from(self.stride_n.is_non_unit())),
            ("local_a", Json::from(self.local_a)),
            ("local_b", Json::from(self.local_b)),
            ("layout_a", Json::from(self.layout_a.tag())),
            ("layout_b", Json::from(self.layout_b.tag())),
            ("algorithm", Json::from(self.algorithm.tag())),
            ("precision", Json::from(format!("{:?}", self.precision))),
        ])
    }

    /// Decode a parameter set previously written by [`Self::to_json`].
    pub fn from_json(v: &Json) -> Result<KernelParams, JsonError> {
        let num = |key: &str| -> Result<usize, JsonError> {
            v.field(key)?.as_usize().ok_or_else(|| JsonError {
                msg: format!("{key} not an integer"),
            })
        };
        let flag = |key: &str| -> Result<bool, JsonError> {
            v.field(key)?.as_bool().ok_or_else(|| JsonError {
                msg: format!("{key} not a bool"),
            })
        };
        let text = |key: &str| -> Result<&str, JsonError> {
            v.field(key)?.as_str().ok_or_else(|| JsonError {
                msg: format!("{key} not a string"),
            })
        };
        let stride = |non_unit: bool| {
            if non_unit {
                StrideMode::NonUnit
            } else {
                StrideMode::Unit
            }
        };
        let parse = |key: &str, what: &str| -> Result<String, JsonError> {
            text(key).map(str::to_string).and_then(|s| {
                if s.is_empty() {
                    Err(JsonError {
                        msg: format!("empty {what}"),
                    })
                } else {
                    Ok(s)
                }
            })
        };
        Ok(KernelParams {
            mwg: num("mwg")?,
            nwg: num("nwg")?,
            kwg: num("kwg")?,
            mdimc: num("mdimc")?,
            ndimc: num("ndimc")?,
            kwi: num("kwi")?,
            mdima: num("mdima")?,
            ndimb: num("ndimb")?,
            vw: num("vw")?,
            stride_m: stride(flag("stride_m")?),
            stride_n: stride(flag("stride_n")?),
            local_a: flag("local_a")?,
            local_b: flag("local_b")?,
            layout_a: parse("layout_a", "layout")?
                .parse()
                .map_err(|e: String| JsonError { msg: e })?,
            layout_b: parse("layout_b", "layout")?
                .parse()
                .map_err(|e: String| JsonError { msg: e })?,
            algorithm: parse("algorithm", "algorithm")?
                .parse()
                .map_err(|e: String| JsonError { msg: e })?,
            precision: parse("precision", "precision")?
                .parse()
                .map_err(|e: String| JsonError { msg: e })?,
        })
    }
}

/// Least common multiple.
#[must_use]
pub fn lcm(a: usize, b: usize) -> usize {
    if a == 0 || b == 0 {
        return 0;
    }
    a / gcd(a, b) * b
}

/// Greatest common divisor.
#[must_use]
pub fn gcd(a: usize, b: usize) -> usize {
    let (mut a, mut b) = (a, b);
    while b != 0 {
        let t = b;
        b = a % b;
        a = t;
    }
    a
}

/// The paper's winning Tahiti DGEMM parameters (Table II), used as a
/// smoke-test fixture and quickstart default.
#[must_use]
pub fn tahiti_dgemm_best() -> KernelParams {
    KernelParams {
        mwg: 96,
        nwg: 32,
        kwg: 48,
        mdimc: 16,
        ndimc: 16,
        kwi: 2,
        mdima: 16,
        ndimb: 16,
        vw: 2,
        stride_m: StrideMode::Unit,
        stride_n: StrideMode::Unit,
        local_a: false,
        local_b: true,
        layout_a: BlockLayout::Cbl,
        layout_b: BlockLayout::Cbl,
        algorithm: Algorithm::Ba,
        precision: Precision::F64,
    }
}

/// A small, fully-featured parameter set that exercises local memory for
/// both operands — convenient in tests where kernels must run quickly in
/// the VM.
#[must_use]
pub fn small_test_params(precision: Precision) -> KernelParams {
    KernelParams {
        mwg: 16,
        nwg: 16,
        kwg: 8,
        mdimc: 4,
        ndimc: 4,
        kwi: 2,
        mdima: 4,
        ndimb: 4,
        vw: 2,
        stride_m: StrideMode::Unit,
        stride_n: StrideMode::Unit,
        local_a: true,
        local_b: true,
        layout_a: BlockLayout::Cbl,
        layout_b: BlockLayout::Cbl,
        algorithm: Algorithm::Ba,
        precision,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_tahiti_params_are_valid() {
        let p = tahiti_dgemm_best();
        p.validate().unwrap();
        assert_eq!(p.wg_size(), 256);
        assert_eq!(p.mwi(), 6);
        assert_eq!(p.nwi(), 2);
        assert_eq!(p.kdima(), 16);
        assert_eq!(p.kdimb(), 16);
    }

    #[test]
    fn lcm_of_paper_tahiti_factors() {
        let p = tahiti_dgemm_best();
        // lcm(96, 32, 48) = 96*... = 96 and 48 -> 96; with 32 -> 96? No:
        // lcm(96,32)=96, lcm(96,48)=96.
        assert_eq!(p.lcm_block(), 96);
    }

    #[test]
    fn derived_work_item_factors() {
        let p = small_test_params(Precision::F32);
        assert_eq!(p.mwi(), 4);
        assert_eq!(p.nwi(), 4);
        assert_eq!(p.mwia(), 4);
        assert_eq!(p.kwia(), 2);
        assert_eq!(p.nwib(), 4);
        assert_eq!(p.kwib(), 2);
    }

    #[test]
    fn invalid_divisibility_is_rejected() {
        let mut p = small_test_params(Precision::F32);
        p.mwg = 18; // not divisible by mdimc=4
        assert!(p.validate().is_err());

        let mut p = small_test_params(Precision::F32);
        p.kwi = 3; // kwg=8 not divisible
        assert!(p.validate().is_err());

        let mut p = small_test_params(Precision::F32);
        p.vw = 8; // nwi=4 not divisible by 8
        assert!(p.validate().is_err());

        let mut p = small_test_params(Precision::F32);
        p.vw = 3;
        assert!(p.validate().is_err());
    }

    #[test]
    fn pl_and_db_require_both_operands_in_local_memory() {
        let mut p = small_test_params(Precision::F64);
        p.algorithm = Algorithm::Pl;
        p.local_a = false;
        assert!(p.validate().is_err());
        p.local_a = true;
        assert!(p.validate().is_ok());
        p.algorithm = Algorithm::Db;
        p.local_b = false;
        assert!(p.validate().is_err());
    }

    #[test]
    fn lds_doubles_under_db() {
        let mut p = small_test_params(Precision::F64);
        let base = p.lds_bytes();
        p.algorithm = Algorithm::Db;
        assert_eq!(p.lds_bytes(), 2 * base);
        assert_eq!(p.k_multiple(), 2 * p.kwg);
    }

    #[test]
    fn pl_increases_register_estimate() {
        let mut p = small_test_params(Precision::F64);
        let base = p.regs_per_wi();
        p.algorithm = Algorithm::Pl;
        assert!(p.regs_per_wi() > base);
    }

    #[test]
    fn loader_vectorisation_conditions() {
        let p = small_test_params(Precision::F32); // mwg=16 mdima=4 vw=2
        assert!(p.loader_a_vec()); // 16 % (4*2) == 0
        let mut q = p;
        q.vw = 4;
        q.mdima = 8; // wg=16, kdima=2, kwg%2 ok; mwg=16 % (8*4)=32 != 0
        assert!(!q.loader_a_vec());
    }

    #[test]
    fn gcd_lcm_basics() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(lcm(4, 6), 12);
        assert_eq!(lcm(96, 32), 96);
        assert_eq!(gcd(7, 0), 7);
        assert_eq!(lcm(0, 3), 0);
    }

    #[test]
    fn describe_contains_key_fields() {
        let d = tahiti_dgemm_best().describe();
        assert!(d.contains("96,32,48"));
        assert!(d.contains("alg=BA"));
        assert!(d.contains("shared=B"));
        assert!(d.contains("CBL,CBL"));
    }

    #[test]
    fn params_json_round_trip() {
        let p = tahiti_dgemm_best();
        let text = p.to_json().to_string_pretty();
        let back = KernelParams::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn params_from_json_rejects_corrupt_fields() {
        let mut doc = tahiti_dgemm_best().to_json();
        if let Json::Obj(pairs) = &mut doc {
            for (k, v) in pairs.iter_mut() {
                if k == "algorithm" {
                    *v = Json::from("XX");
                }
            }
        }
        assert!(KernelParams::from_json(&doc).is_err());
        assert!(KernelParams::from_json(&Json::obj(vec![])).is_err());
    }
}
