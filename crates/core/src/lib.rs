//! # clgemm — auto-tuned OpenCL GEMM on simulated GPUs and CPUs
//!
//! A reproduction of *"Performance Tuning of Matrix Multiplication in
//! OpenCL on Different GPUs and CPUs"* (Matsumoto, Nakasato, Sedukhin,
//! SC Companion 2012): a code generator for `C ← α·Aᵀ·B + β·C` kernels in
//! OpenCL C, a heuristic search engine that tunes the generator's
//! parameters per processor, and a GEMM routine layer that serves all
//! four BLAS GEMM types through the tuned kernel.
//!
//! Since this workspace targets *simulated* devices (see `clgemm-device`
//! and `clgemm-sim`), "measuring" a kernel means running a calibrated
//! analytic timing model, while *correctness* is established end to end:
//! generated source is compiled by the `clgemm-clc` OpenCL C frontend and
//! executed with true work-group semantics, then compared bit-for-bit
//! against a native oracle.
//!
//! ## Quickstart
//!
//! ```
//! use clgemm::prelude::*;
//!
//! // Pick a device and tune (a thinned space keeps doctests fast).
//! let device = DeviceId::Tahiti.spec();
//! let space = SearchSpace::smoke(&device);
//! let opts = SearchOpts { top_k: 5, max_sweep_points: 4, ..Default::default() };
//! let result = tune(&device, Precision::F64, &space, &opts);
//! assert!(result.verified);
//!
//! // Wrap the winners into a BLAS-like routine.
//! let tuned = TunedGemm::new(
//!     device,
//!     result.best.params,
//!     clgemm::params::small_test_params(Precision::F32),
//! );
//! let a = Matrix::<f64>::test_pattern(64, 48, StorageOrder::ColMajor, 1);
//! let b = Matrix::<f64>::test_pattern(48, 32, StorageOrder::ColMajor, 2);
//! let mut c = Matrix::<f64>::zeros(64, 32, StorageOrder::ColMajor);
//! let run = tuned.gemm(GemmType::NN, 1.0, &a, &b, 0.0, &mut c);
//! assert!(run.gflops > 0.0);
//! ```
//!
//! ## Module map
//!
//! | module | paper section | contents |
//! |---|---|---|
//! | [`params`] | §III | the parameter space and its constraints |
//! | [`codegen`] | §III-A..E | OpenCL C kernel emission (BA/PL/DB) |
//! | [`profile`] | §III/§IV | analytic launch profiles for the timing model |
//! | [`executor`] | — | native oracle with generated-kernel numerics |
//! | [`tuner`] | §III-F | candidate enumeration + 3-stage search |
//! | [`routine`] | §III-D/§IV-B | pack/pad + kernel + merge GEMM layer |
//! | [`tile`] | §III-B (host) | SIMD-width-aware register-tile selection |
//! | [`direct`] | §V (future work) | copy-free guarded kernel for small sizes |
//! | [`repo`] | — | persistence of tuning results |
//! | [`predict`] | §III inverted | analytical parameter prediction, zero search |
//! | [`tuning_db`] | — | versioned on-disk tuning database for serving |

pub mod batched;
pub mod codegen;
pub mod direct;
pub mod executor;
pub mod paper_params;
pub mod params;
pub mod predict;
pub mod profile;
pub mod repo;
pub mod routine;
pub mod tile;
pub mod tuner;
pub mod tuning_db;

/// One-stop imports for typical use.
pub mod prelude {
    pub use crate::batched::{BatchOptions, BatchPath, BatchRun, DIRECT_BATCH_MAX};
    pub use crate::codegen::{generate, GeneratedKernel, KERNEL_NAME};
    pub use crate::direct::{generate_direct, DirectParams, DIRECT_KERNEL_NAME};
    pub use crate::params::{Algorithm, KernelParams, StrideMode};
    pub use crate::predict::{
        predict, predict_best, predict_enabled, FeasibleSet, Prediction, PruneReason,
    };
    pub use crate::repo::{KernelRepo, RepoError, SCHEMA_VERSION};
    pub use crate::routine::{GemmPath, GemmRun, HybridGemm, PackDecision, TunedGemm};
    pub use crate::tile::{Tile, TileDecision};
    pub use crate::tuner::{tune, Measurement, SearchOpts, SearchSpace, TuningResult};
    pub use crate::tuning_db::{DbError, DbKey, TuningDb, DB_SCHEMA_VERSION};
    pub use clgemm_blas::layout::BlockLayout;
    pub use clgemm_blas::matrix::{Matrix, StorageOrder};
    pub use clgemm_blas::scalar::{Precision, Scalar};
    pub use clgemm_blas::{
        BatchError, BatchWorkspace, Bf16, GemmBatch, GemmType, StorageScalar, Trans, Workspace, F16,
    };
    pub use clgemm_device::{DeviceId, DeviceSpec};
}
