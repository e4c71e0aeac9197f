//! A miniature OpenCL C implementation: enough of the language to compile
//! and execute the kernels the `clgemm` GEMM code generator emits.
//!
//! The paper's auto-tuner counts only kernels that survive *code
//! generation, compilation and testing*. To reproduce that pipeline
//! without a vendor OpenCL implementation, this crate provides one:
//!
//! * [`lexer`] — tokeniser with source positions;
//! * [`ast`] / [`parser`] — recursive-descent parser for the supported
//!   subset (kernels, typed declarations, `for`/`if`, expressions, vector
//!   types `float2/4/8`, `double2/4/8`, address-space qualifiers);
//! * [`check`] — semantic analysis and type checking with OpenCL's
//!   implicit scalar conversions;
//! * [`lower`] — lowering of the checked AST to a compact register
//!   bytecode;
//! * [`vm`] — the reference work-group executor: work-items run
//!   round-robin between barriers, local memory is shared per
//!   work-group, barrier divergence and same-phase local-memory races
//!   are detected and reported as runtime errors (our analogue of a
//!   kernel that "fails testing");
//! * [`ir`] — the default engine: a typed SSA compiler pipeline
//!   (constant folding, CSE, DCE, loop unrolling) emitting
//!   pre-scheduled per-work-group trace code that runs divergent
//!   branches under per-work-item masks, bit-for-bit equivalent to
//!   [`vm`] (select the reference with [`vm::ExecOptions::reference`]);
//!   the few kernels it declines run on [`vm`];
//! * [`program`] — the public compile-and-launch API used by
//!   `clgemm-sim`.
//!
//! Supported builtins: work-item functions (`get_global_id`, …),
//! `barrier`, `mad`/`fma`, `min`/`max`/`fabs`, `vloadN`/`vstoreN`, and
//! vector constructor casts like `(double2)(x, y)`.

pub mod ast;
pub mod check;
pub mod disasm;
pub mod error;
pub mod ir;
pub mod lexer;
pub mod lower;
pub mod parser;
pub mod program;
pub mod vm;

pub use disasm::{disassemble, disassemble_ir};
pub use error::{CompileError, RuntimeError};
pub use program::{Arg, BufData, Engine, ExecOptions, Kernel, NdRange, Program};
