//! Seeded GEMM inputs and the bit-exact check of sampled outputs.

use clgemm_blas::matrix::{Matrix, StorageOrder};
use clgemm_blas::scalar::Scalar;
use clgemm_blas::{GemmType, Trans};
use clgemm_shim::Rng;

pub fn random_matrix<T: Scalar>(rows: usize, cols: usize, rng: &mut Rng) -> Matrix<T> {
    Matrix::from_fn(rows, cols, StorageOrder::ColMajor, |_, _| {
        T::from_f64(2.0 * rng.f64() - 1.0)
    })
}

/// Stored shape of `op(X)` when `op(X)` is `rows × cols`.
pub fn stored(t: Trans, rows: usize, cols: usize) -> (usize, usize) {
    match t {
        Trans::No => (rows, cols),
        Trans::Yes => (cols, rows),
    }
}

/// Scalars the calls rotate through; β = 0 and β ≠ 0 both occur.
pub fn scalars<T: Scalar>(rng: &mut Rng) -> (T, T) {
    const ALPHAS: [f64; 3] = [1.0, 0.5, -1.25];
    const BETAS: [f64; 3] = [0.0, 1.0, -0.5];
    (
        T::from_f64(ALPHAS[rng.range(0, 3)]),
        T::from_f64(BETAS[rng.range(0, 3)]),
    )
}

/// Seeded sample positions of `C` with their values before the call.
pub fn sample_c<T: Scalar>(
    c: &Matrix<T>,
    n_samples: usize,
    rng: &mut Rng,
) -> Vec<(usize, usize, T)> {
    (0..n_samples)
        .map(|_| {
            let (i, j) = (rng.range(0, c.rows()), rng.range(0, c.cols()));
            (i, j, c.at(i, j))
        })
        .collect()
}

/// Recompute sampled elements on the routine's own arithmetic — one
/// ascending-`p` FMA chain, then `mad(α, acc, β·old)` — and compare bit
/// for bit. Returns the first mismatch.
pub fn check_samples<T: Scalar>(
    ty: GemmType,
    alpha: T,
    a: &Matrix<T>,
    b: &Matrix<T>,
    beta: T,
    samples: &[(usize, usize, T)],
    c: &Matrix<T>,
) -> Option<String> {
    let k = a.dims_op(ty.ta).1;
    samples.iter().find_map(|&(i, j, old)| {
        let mut acc = T::ZERO;
        for p in 0..k {
            acc = a.at_op(ty.ta, i, p).mul_add(b.at_op(ty.tb, p, j), acc);
        }
        let want = alpha.mul_add(acc, beta * old);
        let got = c.at(i, j);
        (want.to_f64().to_bits() != got.to_f64().to_bits())
            .then(|| format!("C({i},{j}) = {got} but the FMA chain gives {want}"))
    })
}
