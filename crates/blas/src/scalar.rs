//! The precision abstraction shared by the whole workspace.
//!
//! The paper tunes two precisions: DGEMM (`f64`) and SGEMM (`f32`). Every
//! generic routine in this workspace is written over [`Scalar`] so that
//! both precisions exercise identical code paths, exactly as the paper's
//! single code generator serves both.

use std::fmt::{Debug, Display};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// Floating-point element type usable in GEMM kernels and reference code.
pub trait Scalar:
    Copy
    + Clone
    + Debug
    + Display
    + Default
    + PartialEq
    + PartialOrd
    + Send
    + Sync
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + Sum
    + 'static
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Element size in bytes, as the OpenCL device sees it.
    const BYTES: usize;
    /// The OpenCL C type name (`"float"` or `"double"`).
    const CL_NAME: &'static str;
    /// Machine epsilon of the type.
    const EPSILON: Self;
    /// Short precision tag used in routine names (`"S"` or `"D"`).
    const PREC_TAG: char;
    /// The run-time precision selector matching this type.
    const PRECISION: Precision;

    /// Lossy conversion from `f64` (used for test data and α/β handling).
    fn from_f64(v: f64) -> Self;
    /// Widening conversion to `f64` (used for error analysis).
    fn to_f64(self) -> f64;
    /// Fused multiply-add `self * a + b`; maps to the device MAD/FMA unit.
    fn mul_add(self, a: Self, b: Self) -> Self;
    /// Absolute value.
    fn abs(self) -> Self;
    /// `true` if the value is finite (kernels producing NaN/Inf are rejected
    /// by the tester just as crashing kernels are discarded in the paper).
    fn is_finite(self) -> bool;
}

impl Scalar for f32 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const BYTES: usize = 4;
    const CL_NAME: &'static str = "float";
    const EPSILON: Self = f32::EPSILON;
    const PREC_TAG: char = 'S';
    const PRECISION: Precision = Precision::F32;

    #[inline]
    fn from_f64(v: f64) -> Self {
        v as f32
    }

    #[inline]
    fn to_f64(self) -> f64 {
        f64::from(self)
    }

    #[inline]
    fn mul_add(self, a: Self, b: Self) -> Self {
        f32::mul_add(self, a, b)
    }

    #[inline]
    fn abs(self) -> Self {
        f32::abs(self)
    }

    #[inline]
    fn is_finite(self) -> bool {
        f32::is_finite(self)
    }
}

impl Scalar for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const BYTES: usize = 8;
    const CL_NAME: &'static str = "double";
    const EPSILON: Self = f64::EPSILON;
    const PREC_TAG: char = 'D';
    const PRECISION: Precision = Precision::F64;

    #[inline]
    fn from_f64(v: f64) -> Self {
        v
    }

    #[inline]
    fn to_f64(self) -> f64 {
        self
    }

    #[inline]
    fn mul_add(self, a: Self, b: Self) -> Self {
        f64::mul_add(self, a, b)
    }

    #[inline]
    fn abs(self) -> Self {
        f64::abs(self)
    }

    #[inline]
    fn is_finite(self) -> bool {
        f64::is_finite(self)
    }
}

/// A storage element type for batched GEMM slabs.
///
/// Arithmetic always happens in [`StorageScalar::Acc`] (`f32` or `f64`):
/// operands are widened on pack (or on load, in the direct path) and the
/// accumulator is narrowed back exactly once when `C` is written. Widening
/// `f16`/`bf16` to `f32` is exact, so the half-precision paths run the
/// *identical* `f32` FMA chain as an `f32` computation over the widened
/// values — the property suite compares them bit for bit. Narrowing uses
/// round-to-nearest-even, the same rule in the fast path and the oracle.
pub trait StorageScalar:
    Copy + Clone + Debug + Display + Default + PartialEq + Send + Sync + 'static
{
    /// The accumulation type; all arithmetic happens here.
    type Acc: Scalar;
    /// Short name used in metrics/bench labels (`"f32"`, `"f16"`, …).
    const NAME: &'static str;
    /// `true` when `widen` changes representation (convert-on-pack).
    const WIDENS: bool;
    /// Storage element size in bytes.
    const STORAGE_BYTES: usize;

    /// Exact widening conversion into the accumulation type.
    fn widen(self) -> Self::Acc;
    /// Round-to-nearest-even narrowing from the accumulation type.
    fn narrow(acc: Self::Acc) -> Self;
    /// Test-data constructor (round-trips through `narrow`).
    fn from_f64(v: f64) -> Self {
        Self::narrow(<Self::Acc as Scalar>::from_f64(v))
    }
    /// Widening conversion to `f64` for diagnostics.
    fn to_f64(self) -> f64 {
        Scalar::to_f64(self.widen())
    }
}

/// Every accumulation type is also its own storage type, so `f32`/`f64`
/// matrices and slabs share the widening copiers without a conversion.
impl<T: Scalar> StorageScalar for T {
    type Acc = T;
    const NAME: &'static str = if T::BYTES == 8 { "f64" } else { "f32" };
    const WIDENS: bool = false;
    const STORAGE_BYTES: usize = T::BYTES;

    #[inline]
    fn widen(self) -> T {
        self
    }

    #[inline]
    fn narrow(acc: T) -> T {
        acc
    }
}

/// IEEE 754 binary16 storage (1 sign, 5 exponent, 10 mantissa bits).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct F16(pub u16);

/// bfloat16 storage — the upper 16 bits of an `f32`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Bf16(pub u16);

impl StorageScalar for F16 {
    type Acc = f32;
    const NAME: &'static str = "f16";
    const WIDENS: bool = true;
    const STORAGE_BYTES: usize = 2;

    #[inline]
    fn widen(self) -> f32 {
        f16_to_f32(self.0)
    }

    #[inline]
    fn narrow(acc: f32) -> F16 {
        F16(f32_to_f16(acc))
    }
}

impl StorageScalar for Bf16 {
    type Acc = f32;
    const NAME: &'static str = "bf16";
    const WIDENS: bool = true;
    const STORAGE_BYTES: usize = 2;

    #[inline]
    fn widen(self) -> f32 {
        f32::from_bits(u32::from(self.0) << 16)
    }

    #[inline]
    fn narrow(acc: f32) -> Bf16 {
        Bf16(f32_to_bf16(acc))
    }
}

impl Display for F16 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.widen())
    }
}

impl Display for Bf16 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.widen())
    }
}

/// Widen binary16 bits to `f32`. Exact for every input, including
/// subnormals (scaled through an exact small-integer multiply).
#[must_use]
pub fn f16_to_f32(bits: u16) -> f32 {
    let sign = u32::from(bits >> 15) << 31;
    let exp = (bits >> 10) & 0x1f;
    let man = u32::from(bits & 0x3ff);
    match (exp, man) {
        (0, 0) => f32::from_bits(sign),
        // Subnormal: man × 2⁻²⁴, exact (man < 2¹⁰).
        (0, _) => {
            let v = man as f32 * f32::from_bits(0x3380_0000);
            f32::from_bits(v.to_bits() | sign)
        }
        (0x1f, 0) => f32::from_bits(sign | 0x7f80_0000),
        (0x1f, _) => f32::from_bits(sign | 0x7fc0_0000 | (man << 13)),
        _ => f32::from_bits(sign | ((u32::from(exp) + 112) << 23) | (man << 13)),
    }
}

/// Narrow `f32` to binary16 bits with round-to-nearest-even; overflow
/// rounds to ±∞ and values below half the smallest subnormal to ±0.
#[must_use]
pub fn f32_to_f16(x: f32) -> u16 {
    let b = x.to_bits();
    let sign = ((b >> 16) & 0x8000) as u16;
    let exp_f32 = (b >> 23) & 0xff;
    let man = b & 0x007f_ffff;
    if exp_f32 == 0xff {
        if man == 0 {
            return sign | 0x7c00;
        }
        // NaN: keep the top payload bits, force quiet.
        return sign | 0x7c00 | 0x200 | ((man >> 13) & 0x3ff) as u16;
    }
    let exp = exp_f32 as i32 - 127 + 15;
    if exp >= 0x1f {
        return sign | 0x7c00;
    }
    if exp <= 0 {
        if exp < -10 {
            return sign;
        }
        // Subnormal result: shift the full 24-bit significand down and
        // round; a carry into the exponent field is naturally correct.
        let man = man | 0x0080_0000;
        let shift = (14 - exp) as u32;
        let halfway = 1u32 << (shift - 1);
        let rem = man & ((1 << shift) - 1);
        let mut out = (man >> shift) as u16;
        if rem > halfway || (rem == halfway && out & 1 == 1) {
            out += 1;
        }
        return sign | out;
    }
    let rem = man & 0x1fff;
    let mut out = ((exp as u32) << 10 | (man >> 13)) as u16;
    if rem > 0x1000 || (rem == 0x1000 && out & 1 == 1) {
        out += 1; // may carry into the exponent, up to ∞ — correct
    }
    sign | out
}

/// Narrow `f32` to bfloat16 bits with round-to-nearest-even.
#[must_use]
pub fn f32_to_bf16(x: f32) -> u16 {
    let b = x.to_bits();
    if x.is_nan() {
        // Keep sign and payload, force a nonzero mantissa.
        return ((b >> 16) as u16) | 0x0040;
    }
    let rem = b & 0xffff;
    let mut out = (b >> 16) as u16;
    if rem > 0x8000 || (rem == 0x8000 && out & 1 == 1) {
        out += 1; // carries roll to ±∞, never wrap (0xffff is NaN)
    }
    out
}

/// Precision selector used where code paths are chosen at run time rather
/// than by monomorphisation (e.g. in the tuner's result records).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Precision {
    /// Single precision — SGEMM.
    F32,
    /// Double precision — DGEMM.
    F64,
}

impl Precision {
    /// Element size in bytes.
    #[must_use]
    pub fn bytes(self) -> usize {
        match self {
            Precision::F32 => 4,
            Precision::F64 => 8,
        }
    }

    /// OpenCL C scalar type name.
    #[must_use]
    pub fn cl_name(self) -> &'static str {
        match self {
            Precision::F32 => "float",
            Precision::F64 => "double",
        }
    }

    /// The BLAS routine name for GEMM at this precision.
    #[must_use]
    pub fn routine_name(self) -> &'static str {
        match self {
            Precision::F32 => "SGEMM",
            Precision::F64 => "DGEMM",
        }
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.routine_name())
    }
}

impl std::str::FromStr for Precision {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_uppercase().as_str() {
            "F32" | "SGEMM" => Ok(Precision::F32),
            "F64" | "DGEMM" => Ok(Precision::F64),
            other => Err(format!("unknown precision {other:?}; expected F32/F64")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_constants_are_consistent() {
        assert_eq!(f32::BYTES, Precision::F32.bytes());
        assert_eq!(f64::BYTES, Precision::F64.bytes());
        assert_eq!(f32::CL_NAME, Precision::F32.cl_name());
        assert_eq!(f64::CL_NAME, Precision::F64.cl_name());
        assert_eq!(f32::PRECISION, Precision::F32);
        assert_eq!(f64::PRECISION, Precision::F64);
    }

    #[test]
    fn mul_add_matches_separate_ops_for_exact_values() {
        assert_eq!(2.0f64.mul_add(3.0, 4.0), 10.0);
        assert_eq!(2.0f32.mul_add(3.0, 4.0), 10.0);
    }

    #[test]
    fn conversions_round_trip() {
        // f32/f64 implement both Scalar and StorageScalar conversions (they
        // must agree), so qualify the trait explicitly.
        let x = 1.5f32;
        assert_eq!(<f32 as Scalar>::from_f64(Scalar::to_f64(x)), x);
        assert_eq!(
            <f32 as StorageScalar>::from_f64(StorageScalar::to_f64(x)),
            x
        );
        let y = -2.25f64;
        assert_eq!(<f64 as Scalar>::from_f64(Scalar::to_f64(y)), y);
        assert_eq!(
            <f64 as StorageScalar>::from_f64(StorageScalar::to_f64(y)),
            y
        );
    }

    #[test]
    fn non_finite_detection() {
        assert!(!f32::NAN.is_finite());
        assert!(!f64::INFINITY.is_finite());
        assert!(1.0f64.is_finite());
    }

    #[test]
    fn routine_names() {
        assert_eq!(Precision::F64.routine_name(), "DGEMM");
        assert_eq!(Precision::F32.to_string(), "SGEMM");
    }

    #[test]
    fn f16_widen_narrow_round_trips_every_finite_value() {
        // Exhaustive: every finite f16 must survive widen → narrow.
        for bits in 0..=u16::MAX {
            let exp = (bits >> 10) & 0x1f;
            if exp == 0x1f {
                continue; // Inf/NaN handled below
            }
            let wide = f16_to_f32(bits);
            assert_eq!(f32_to_f16(wide), bits, "bits {bits:#06x} -> {wide}");
        }
        assert_eq!(f16_to_f32(0x7c00), f32::INFINITY);
        assert_eq!(f16_to_f32(0xfc00), f32::NEG_INFINITY);
        assert!(f16_to_f32(0x7c01).is_nan());
    }

    #[test]
    fn f16_narrow_rounds_to_nearest_even() {
        // 1 + 2⁻¹¹ lies exactly halfway between 1.0 and the next f16;
        // ties go to the even mantissa (1.0).
        assert_eq!(f32_to_f16(1.0 + 0.000_488_281_25), 0x3c00);
        // Just above the tie rounds up.
        assert_eq!(f32_to_f16(1.0 + 0.000_489), 0x3c01);
        // Overflow saturates to infinity: max finite f16 is 65504.
        assert_eq!(f32_to_f16(65520.0), 0x7c00);
        assert_eq!(f32_to_f16(65503.9), 0x7bff);
        // Below half the smallest subnormal flushes to signed zero.
        assert_eq!(f32_to_f16(1e-10), 0x0000);
        assert_eq!(f32_to_f16(-1e-10), 0x8000);
        // Smallest subnormal survives.
        let tiny = f16_to_f32(0x0001);
        assert_eq!(f32_to_f16(tiny), 0x0001);
    }

    #[test]
    fn bf16_widen_narrow_round_trips_every_finite_value() {
        for bits in 0..=u16::MAX {
            let exp = (bits >> 7) & 0xff;
            if exp == 0xff {
                continue;
            }
            let wide = Bf16(bits).widen();
            assert_eq!(f32_to_bf16(wide), bits, "bits {bits:#06x}");
        }
        assert_eq!(Bf16(0x7f80).widen(), f32::INFINITY);
        assert!(Bf16(0x7fc0).widen().is_nan());
        assert!(Bf16::narrow(f32::NAN).widen().is_nan());
        assert!(F16::narrow(f32::NAN).widen().is_nan());
    }

    #[test]
    fn bf16_narrow_rounds_to_nearest_even() {
        // 1 + 2⁻⁸ is the exact halfway point after 1.0 in bf16 (7 mantissa
        // bits): the tie goes to the even 0x3f80, anything above rounds up.
        assert_eq!(f32_to_bf16(1.0 + 0.003_906_25), 0x3f80);
        assert_eq!(f32_to_bf16(1.0 + 0.004), 0x3f81);
        // The next tie, 1 + 3·2⁻⁸, rounds up to the even 0x3f82.
        assert_eq!(f32_to_bf16(1.0 + 3.0 * 0.003_906_25), 0x3f82);
        // Carry past the largest finite bf16 lands on infinity.
        assert_eq!(f32_to_bf16(f32::from_bits(0x7f7f_ffff)), 0x7f80);
        assert_eq!(f32_to_bf16(f32::from_bits(0xff7f_ffff)), 0xff80);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)] // the tags ARE the contract
    fn storage_scalar_widening_is_exact_and_tagged() {
        assert!(!<f32 as StorageScalar>::WIDENS);
        assert!(!<f64 as StorageScalar>::WIDENS);
        assert!(F16::WIDENS);
        assert!(Bf16::WIDENS);
        assert_eq!(F16::NAME, "f16");
        assert_eq!(Bf16::STORAGE_BYTES, 2);
        // from_f64 narrows with the same RNE rule as narrow().
        let x = <F16 as StorageScalar>::from_f64(0.3);
        assert_eq!(x, F16::narrow(0.3f32));
        let y = <Bf16 as StorageScalar>::from_f64(-1.7);
        assert_eq!(y, Bf16::narrow(-1.7f32));
        assert!((StorageScalar::to_f64(y) + 1.7).abs() < 0.01);
    }
}
