//! Extension experiment — the strided-batched host path: one
//! `GemmBatch` call vs a loop of single-GEMM calls in the analytic
//! model, the direct-vs-packed crossover, and a host-measured bit-exact
//! check across all four storage types.

use crate::lab::Lab;
use crate::render::{gf, Report, TextTable};
use clgemm::batched::{BatchOptions, BatchPath};
use clgemm_blas::matrix::{Matrix, StorageOrder};
use clgemm_blas::scalar::{Scalar, StorageScalar};
use clgemm_blas::workspace::WorkspaceScalar;
use clgemm_blas::{BatchWorkspace, Bf16, GemmBatch, GemmType, F16};
use clgemm_device::DeviceId;

/// Regenerate the batched-GEMM study.
#[must_use]
pub fn report(lab: &mut Lab) -> Report {
    let mut rep = Report::new(
        "batched",
        "EXTENSION: strided-batched GEMM — amortised packing, the small-matrix direct path, \
         and f16/bf16 storage with f32 accumulation",
    );
    let tg = lab.tuned_gemm(DeviceId::Tahiti);

    // Modelled batch economics: the looped column pays the per-call
    // pack/stage/merge cost `batch` times; the batched column pays the
    // shared parts once. The direct column skips copies entirely.
    let mut t = TextTable::new(
        "Tahiti SGEMM (NN), modelled: loop of singles vs one batched call",
        &[
            "batch",
            "N",
            "looped s",
            "packed batch s",
            "direct batch s",
            "best path",
            "speedup",
        ],
    );
    for &batch in &[1usize, 8, 64] {
        for &edge in &[32usize, 128, 512] {
            let desc = GemmBatch::packed(GemmType::NN, batch, edge, edge, edge);
            let one = tg.predict(false, GemmType::NN, edge, edge, edge);
            let looped = one.total * batch as f64;
            let packed = tg.predict_batch(false, &desc);
            let direct = tg.predict_batch_direct::<f32>(&desc);
            let (path, best) = if direct <= packed {
                ("direct", direct)
            } else {
                ("packed", packed)
            };
            t.row(vec![
                batch.to_string(),
                edge.to_string(),
                format!("{looped:.6}"),
                format!("{packed:.6}"),
                format!("{direct:.6}"),
                path.to_string(),
                format!("{:.2}x", looped / best),
            ]);
        }
    }
    rep.table(t);

    // Modelled crossover: where the in-place direct kernel stops paying.
    let mut t = TextTable::new(
        "Direct vs packed modelled crossover (batch 16, SGEMM NN)",
        &["N", "direct GF", "packed GF", "winner"],
    );
    for &edge in &[16usize, 32, 64, 128, 256, 512, 1024] {
        let desc = GemmBatch::packed(GemmType::NN, 16, edge, edge, edge);
        let flops = 2.0 * 16.0 * (edge as f64).powi(3);
        let direct = tg.predict_batch_direct::<f32>(&desc);
        let packed = tg.predict_batch(false, &desc);
        t.row(vec![
            edge.to_string(),
            gf(flops / direct / 1e9),
            gf(flops / packed / 1e9),
            if direct <= packed { "direct" } else { "packed" }.to_string(),
        ]);
    }
    rep.table(t);

    // Host-measured storage sweep: every storage type, both paths, each
    // checked bit-exact against a loop of single-GEMM calls on widened
    // operands — the property the batched paths are built around.
    let mut t = TextTable::new(
        "Host batched call, 8 x 24^3: bit-exactness vs looped singles",
        &["storage", "accumulate", "direct", "packed"],
    );
    t.row(storage_row::<f32>(&tg, "f32"));
    t.row(storage_row::<f64>(&tg, "f64"));
    t.row(storage_row::<F16>(&tg, "f16"));
    t.row(storage_row::<Bf16>(&tg, "bf16"));
    rep.table(t);

    rep.note(
        "The batched entry point amortises workspace acquisition, tile selection and shared-\
         operand packs across the batch; below the crossover the direct register-tile kernel \
         additionally skips all four O(N^2) copy passes.",
    );
    rep.note(
        "f16/bf16 operands widen exactly to f32 on pack (or per load on the direct path) and \
         narrow once with round-to-nearest-even on merge, so every storage type is bit-identical \
         to computing on pre-widened matrices. Measured curves: BENCH_batched.json.",
    );
    rep
}

/// Run one storage type through both host paths and compare bitwise
/// against the looped single-GEMM oracle on widened entries.
fn storage_row<S>(tg: &clgemm::routine::TunedGemm, name: &str) -> Vec<String>
where
    S: StorageScalar,
    S::Acc: WorkspaceScalar,
{
    let (batch, edge) = (8usize, 24usize);
    let desc = GemmBatch::packed(GemmType::NN, batch, edge, edge, edge);
    let len = batch * edge * edge;
    let fill = |seed: usize| -> Vec<S> {
        (0..len)
            .map(|i| S::from_f64(((i * 7 + seed * 13) % 16) as f64 * 0.25 - 2.125))
            .collect()
    };
    let (a, b, c0) = (fill(1), fill(2), fill(3));
    let alpha = <S::Acc as Scalar>::from_f64(1.25);
    let beta = <S::Acc as Scalar>::from_f64(-0.5);

    // Oracle: loop the single-GEMM routine over widened entries.
    let mut want: Vec<S> = Vec::with_capacity(len);
    for i in 0..batch {
        let widen = |slab: &[S], r: usize, j: usize| slab[desc.c_offset(i) + j * edge + r].widen();
        let am = Matrix::from_fn(edge, edge, StorageOrder::ColMajor, |r, j| widen(&a, r, j));
        let bm = Matrix::from_fn(edge, edge, StorageOrder::ColMajor, |r, j| widen(&b, r, j));
        let mut cm = Matrix::from_fn(edge, edge, StorageOrder::ColMajor, |r, j| widen(&c0, r, j));
        tg.gemm(GemmType::NN, alpha, &am, &bm, beta, &mut cm);
        for j in 0..edge {
            for r in 0..edge {
                want.push(S::narrow(cm.at(r, j)));
            }
        }
    }

    let mut ws = BatchWorkspace::new();
    let mut verdict = |path: BatchPath| -> String {
        let mut c = c0.clone();
        let opts = BatchOptions {
            force_path: Some(path),
        };
        tg.gemm_batch_with(&desc, alpha, &a, &b, beta, &mut c, &mut ws, &opts)
            .expect("descriptor is valid");
        if c == want {
            "bit-exact".to_string()
        } else {
            "DIVERGED".to_string()
        }
    };
    vec![
        name.to_string(),
        S::Acc::PRECISION.to_string(),
        verdict(BatchPath::Direct),
        verdict(BatchPath::Packed),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lab::Quality;

    #[test]
    fn batched_beats_looped_in_the_model_and_stays_bit_exact() {
        let mut lab = Lab::new(Quality::Quick);
        let rep = report(&mut lab);
        // Every batch>1 row must show the best batched path ahead of the
        // looped singles.
        for row in &rep.tables[0].rows {
            let batch: usize = row[0].parse().unwrap();
            let speedup: f64 = row[6].trim_end_matches('x').parse().unwrap();
            if batch > 1 {
                assert!(speedup >= 1.0, "row {row:?} lost to the loop");
            }
        }
        // The storage sweep must be bit-exact on both paths, all types.
        for row in &rep.tables[2].rows {
            assert_eq!(row[2], "bit-exact", "{} direct path diverged", row[0]);
            assert_eq!(row[3], "bit-exact", "{} packed path diverged", row[0]);
        }
    }
}
