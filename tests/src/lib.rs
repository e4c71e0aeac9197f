//! Cross-crate integration tests for the `clgemm` workspace.
//!
//! The actual tests live in `tests/tests/*.rs`; this library only hosts
//! shared helpers.

use clgemm::params::{Algorithm, KernelParams, StrideMode};
use clgemm_blas::layout::BlockLayout;
use clgemm_blas::matrix::{Matrix, StorageOrder};
use clgemm_blas::scalar::{Precision, Scalar};
use clgemm_blas::{GemmType, Trans};
use clgemm_shim::Rng;

/// Build col-major operands of the right shapes for `op(A)op(B)` with
/// deterministic contents.
pub fn gemm_operands<T: Scalar>(
    ty: GemmType,
    m: usize,
    n: usize,
    k: usize,
) -> (Matrix<T>, Matrix<T>, Matrix<T>) {
    let (ar, ac) = match ty.ta {
        Trans::No => (m, k),
        Trans::Yes => (k, m),
    };
    let (br, bc) = match ty.tb {
        Trans::No => (k, n),
        Trans::Yes => (n, k),
    };
    (
        Matrix::test_pattern(ar, ac, StorageOrder::ColMajor, 11),
        Matrix::test_pattern(br, bc, StorageOrder::ColMajor, 22),
        Matrix::test_pattern(m, n, StorageOrder::ColMajor, 33),
    )
}

/// Draw a valid parameter set, shared by the engines, props and
/// disassembly-corpus suites: divisibility holds by construction,
/// resource limits by retry.
pub fn valid_params(rng: &mut Rng) -> KernelParams {
    loop {
        let mdimc = rng.range(2, 9);
        let ndimc = rng.range(2, 9);
        let mwi = rng.range(1, 5);
        let nwi = *rng.choose(&[2usize, 4]).unwrap();
        let kblocks = rng.range(1, 4);
        let kwi = *rng.choose(&[1usize, 2]).unwrap();
        let vw = *rng.choose(&[1usize, 2]).unwrap();
        if !nwi.is_multiple_of(vw) {
            continue;
        }
        let algorithm = *rng.choose(&Algorithm::ALL).unwrap();
        let la = rng.range(0, 3);
        let lb = rng.range(0, 3);
        let p = KernelParams {
            mwg: mdimc * mwi,
            nwg: ndimc * nwi,
            kwg: kblocks * kwi * 2,
            mdimc,
            ndimc,
            kwi,
            mdima: mdimc,
            ndimb: ndimc,
            vw,
            stride_m: if rng.bool() {
                StrideMode::Unit
            } else {
                StrideMode::NonUnit
            },
            stride_n: if rng.bool() {
                StrideMode::Unit
            } else {
                StrideMode::NonUnit
            },
            local_a: algorithm != Algorithm::Ba || la == 0,
            local_b: algorithm != Algorithm::Ba || lb == 0,
            layout_a: BlockLayout::ALL[la],
            layout_b: BlockLayout::ALL[lb],
            algorithm,
            precision: if rng.bool() {
                Precision::F64
            } else {
                Precision::F32
            },
        };
        if p.validate().is_ok() {
            return p;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operand_shapes_follow_the_type() {
        let (a, b, c) = gemm_operands::<f64>(GemmType::TN, 4, 5, 6);
        assert_eq!((a.rows(), a.cols()), (6, 4));
        assert_eq!((b.rows(), b.cols()), (6, 5));
        assert_eq!((c.rows(), c.cols()), (4, 5));
    }
}
