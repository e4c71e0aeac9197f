//! Strided-batched request/response types for the serving layer.
//!
//! A strided batch is *one* request whose operands are slabs holding
//! `batch` same-shaped matrices at fixed strides (see
//! [`GemmBatch`]) — many tiny GEMMs that would drown the queue →
//! batcher → cache pipeline as individual submissions. The server
//! therefore serves them through a bypass API
//! ([`crate::GemmServer::run_batched`]): the whole slab is costed on
//! every device with the batched performance model of the path it will
//! take (`TunedGemm::route_batch`), placed on the least-loaded worker by
//! the same scheduler that places coalesced batches, and executed in one
//! call through the routine layer's batched entry point with a
//! per-worker reusable [`BatchWorkspace`].
//!
//! Unlike [`crate::GemmPayload`], batched payloads cover the two
//! reduced-precision *storage* types as well: `f16` and `bf16` slabs
//! accumulate in `f32` (convert-on-pack in the routine layer), so their
//! serving precision — the precision the kernel cache and scheduler key
//! on — is [`Precision::F32`].

use clgemm::batched::BatchRun;
use clgemm::params::KernelParams;
use clgemm_blas::scalar::Precision;
use clgemm_blas::{Bf16, GemmBatch, F16};

/// The operand slabs of one strided-batched GEMM, in any of the four
/// storage types. `alpha`/`beta` are given in the *accumulation* type.
#[derive(Debug, Clone)]
pub enum BatchedPayload {
    F64 {
        alpha: f64,
        a: Vec<f64>,
        b: Vec<f64>,
        beta: f64,
        c: Vec<f64>,
    },
    F32 {
        alpha: f32,
        a: Vec<f32>,
        b: Vec<f32>,
        beta: f32,
        c: Vec<f32>,
    },
    /// IEEE binary16 storage, f32 accumulation.
    F16 {
        alpha: f32,
        a: Vec<F16>,
        b: Vec<F16>,
        beta: f32,
        c: Vec<F16>,
    },
    /// bfloat16 storage, f32 accumulation.
    Bf16 {
        alpha: f32,
        a: Vec<Bf16>,
        b: Vec<Bf16>,
        beta: f32,
        c: Vec<Bf16>,
    },
}

impl BatchedPayload {
    /// The precision the kernel runs at — what the cache and the
    /// scheduler key on. Reduced-precision storage accumulates in f32.
    #[must_use]
    pub fn precision(&self) -> Precision {
        match self {
            BatchedPayload::F64 { .. } => Precision::F64,
            BatchedPayload::F32 { .. }
            | BatchedPayload::F16 { .. }
            | BatchedPayload::Bf16 { .. } => Precision::F32,
        }
    }

    /// `true` when packing widens the storage type (f16/bf16 → f32).
    #[must_use]
    pub fn widens(&self) -> bool {
        matches!(
            self,
            BatchedPayload::F16 { .. } | BatchedPayload::Bf16 { .. }
        )
    }

    /// Short tag for logs and stats: `f64`, `f32`, `f16`, `bf16`.
    #[must_use]
    pub fn storage_tag(&self) -> &'static str {
        match self {
            BatchedPayload::F64 { .. } => "f64",
            BatchedPayload::F32 { .. } => "f32",
            BatchedPayload::F16 { .. } => "f16",
            BatchedPayload::Bf16 { .. } => "bf16",
        }
    }
}

/// One strided-batched GEMM to serve: the shared descriptor plus the
/// operand slabs it indexes into.
#[derive(Debug, Clone)]
pub struct BatchedRequest {
    pub desc: GemmBatch,
    pub payload: BatchedPayload,
}

impl BatchedRequest {
    #[must_use]
    pub fn new(desc: GemmBatch, payload: BatchedPayload) -> BatchedRequest {
        BatchedRequest { desc, payload }
    }
}

/// The served strided batch, with everything needed to replay it.
#[derive(Debug, Clone)]
pub struct BatchedResponse {
    /// Code name of the device that served it.
    pub device: String,
    /// Kernel parameters resolved for the batch's shape bucket (the
    /// packed path runs through them; the direct path bypasses them but
    /// they are what a re-tune would start from).
    pub params: KernelParams,
    /// The shared descriptor the batch ran under.
    pub desc: GemmBatch,
    /// Operand slabs with `C` updated in place.
    pub payload: BatchedPayload,
    /// Path taken, modelled timing, tile/pack decisions.
    pub run: BatchRun,
    /// Virtual time at which the device queue drains this batch.
    pub done_at: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduced_precision_storage_serves_at_f32() {
        let half = BatchedPayload::F16 {
            alpha: 1.0,
            a: vec![],
            b: vec![],
            beta: 0.0,
            c: vec![],
        };
        assert_eq!(half.precision(), Precision::F32);
        assert!(half.widens());
        assert_eq!(half.storage_tag(), "f16");
        let single = BatchedPayload::F32 {
            alpha: 1.0,
            a: vec![],
            b: vec![],
            beta: 0.0,
            c: vec![],
        };
        assert_eq!(single.precision(), Precision::F32);
        assert!(!single.widens());
    }
}
