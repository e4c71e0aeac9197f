//! The heuristic search engine (§III-F).
//!
//! The paper searches "tens of thousands of kernel variants per single
//! GEMM type on an OpenCL device", keeping only kernels that survive code
//! generation, compilation and testing, and selects the fastest in a
//! three-stage procedure. This module reproduces that engine:
//!
//! * [`space`] — heuristic enumeration of candidate parameter sets, with
//!   every knob restrictable (the ablation benches fix one dimension at a
//!   time);
//! * [`search`] — the three-stage procedure of §III-F: measure every
//!   candidate at `N = ⌊base/LCM⌋·LCM` (4096 base on GPUs, 1536 on CPUs),
//!   re-measure the fastest 50 across all `N` multiples of LCM up to
//!   8192, pick the winner, then functionally verify it end-to-end
//!   (generate → compile → execute in the VM → compare against the
//!   reference GEMM). Stage 1 scores the space while visiting it, one
//!   pool task per (work-group shape, tile) point, and never
//!   materialises the candidate list.

pub mod search;
pub mod space;
pub mod strategies;

pub use search::{tune, Measurement, SearchOpts, TuningResult};
pub use space::SearchSpace;
pub use strategies::{tune_with_strategy, Strategy, StrategyResult};
