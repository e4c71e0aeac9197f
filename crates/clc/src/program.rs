//! The public compile-and-launch API.
//!
//! ```
//! use clgemm_clc::{Program, Arg, BufData, NdRange, ExecOptions};
//!
//! let src = r#"
//!     __kernel void scale(__global const float* x, __global float* y, float a, int n) {
//!         int i = get_global_id(0);
//!         if (i < n) { y[i] = a * x[i]; }
//!     }
//! "#;
//! let program = Program::compile(src).unwrap();
//! let kernel = program.kernel("scale").unwrap();
//! let mut bufs = vec![
//!     BufData::F32(vec![1.0, 2.0, 3.0, 4.0]),
//!     BufData::F32(vec![0.0; 4]),
//! ];
//! kernel
//!     .launch(
//!         NdRange::d1(4, 2),
//!         &[Arg::Buf(0), Arg::Buf(1), Arg::F32(10.0), Arg::I32(4)],
//!         &mut bufs,
//!         &ExecOptions::default(),
//!     )
//!     .unwrap();
//! assert_eq!(bufs[1], BufData::F32(vec![10.0, 20.0, 30.0, 40.0]));
//! ```

use crate::ast::{Base, Type};
use crate::check::check;
use crate::error::{CompileError, RuntimeError};
use crate::lower::{lower, CompiledKernel};
use crate::parser::parse;
use crate::vm::{run_group_in, DynStats, Geometry, GlobalRaceTables, RefArena, Value};

pub use crate::vm::{BufData, Engine, ExecOptions};

/// Bridge one launch's [`DynStats`] into the global metrics registry.
/// Every counter is created at the point of first non-zero use so a
/// workload that never hits a barrier (say) does not register a dead
/// `vm_barriers_total`.
fn record_launch_metrics(stats: &DynStats, engine: &str) {
    if !clgemm_trace::enabled() {
        return;
    }
    let reg = clgemm_trace::Registry::global();
    reg.counter_labeled("vm_launches_total", &[("engine", engine)])
        .inc();
    for (name, v) in [
        ("vm_instrs_total", stats.instrs),
        ("vm_mads_total", stats.mads),
        ("vm_mem_global_bytes_total", stats.mem_global_bytes),
        ("vm_barriers_total", stats.barriers),
    ] {
        if v > 0 {
            reg.counter(name).add(v);
        }
    }
}

/// A kernel launch argument, in declared parameter order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arg {
    I32(i32),
    F32(f32),
    F64(f64),
    /// Index into the `bufs` slice passed to `launch`.
    Buf(usize),
}

/// A 2-D NDRange (the paper only uses two-dimensional index spaces).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NdRange {
    pub global: [usize; 2],
    pub local: [usize; 2],
}

impl NdRange {
    /// A 1-D range expressed in the 2-D form.
    #[must_use]
    pub fn d1(global: usize, local: usize) -> NdRange {
        NdRange {
            global: [global, 1],
            local: [local, 1],
        }
    }

    /// A 2-D range.
    #[must_use]
    pub fn d2(global: [usize; 2], local: [usize; 2]) -> NdRange {
        NdRange { global, local }
    }

    fn validate(&self) -> Result<(), RuntimeError> {
        for d in 0..2 {
            if self.local[d] == 0 || self.global[d] == 0 {
                return Err(RuntimeError::BadNdRange(format!(
                    "zero extent in dimension {d} (global {:?}, local {:?})",
                    self.global, self.local
                )));
            }
            // OpenCL 1.x rule, which the paper's kernels rely on.
            if !self.global[d].is_multiple_of(self.local[d]) {
                return Err(RuntimeError::BadNdRange(format!(
                    "global size {} not a multiple of local size {} in dimension {d}",
                    self.global[d], self.local[d]
                )));
            }
        }
        Ok(())
    }
}

/// A compiled OpenCL C program.
#[derive(Debug, Clone)]
pub struct Program {
    source: String,
    kernels: Vec<CompiledKernel>,
}

impl Program {
    /// Compile source: preprocess → lex → parse → check → lower.
    pub fn compile(src: &str) -> Result<Program, CompileError> {
        let unit = parse(src)?;
        let checked = check(&unit)?;
        let kernels = lower(&checked)?;
        Ok(Program {
            source: src.to_string(),
            kernels,
        })
    }

    /// The original source text.
    #[must_use]
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Names of all kernels in the program.
    pub fn kernel_names(&self) -> impl Iterator<Item = &str> {
        self.kernels.iter().map(|k| k.name.as_str())
    }

    /// Look up a kernel by name.
    #[must_use]
    pub fn kernel(&self, name: &str) -> Option<Kernel<'_>> {
        self.kernels
            .iter()
            .find(|k| k.name == name)
            .map(|inner| Kernel { inner })
    }
}

/// A handle to one compiled kernel.
#[derive(Debug, Clone, Copy)]
pub struct Kernel<'a> {
    inner: &'a CompiledKernel,
}

impl<'a> Kernel<'a> {
    /// Kernel name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// The lowered form (for instruction-mix inspection).
    #[must_use]
    pub fn compiled(&self) -> &'a CompiledKernel {
        self.inner
    }

    /// Total local-memory bytes the kernel statically allocates per
    /// work-group.
    #[must_use]
    pub fn local_mem_bytes(&self) -> usize {
        self.inner
            .checked
            .local_arrays
            .iter()
            .map(|a| {
                a.len
                    * match a.base {
                        Base::Float => 4,
                        _ => 8,
                    }
            })
            .sum()
    }

    /// Execute the kernel over the NDRange. With the default
    /// [`Engine::Compiled`] the work-groups run pre-scheduled trace
    /// code from the SSA compiler pipeline, in parallel (a kernel the
    /// compiler declined runs on the reference interpreter instead);
    /// [`Engine::Reference`] runs groups sequentially through the
    /// original interpreter. Both produce bit-identical buffers and
    /// stats. Work-items within a group always run with true barrier
    /// semantics.
    ///
    /// # Errors
    /// Compile-quality argument/NDRange errors and all VM runtime errors
    /// (bounds, divergence, races).
    pub fn launch(
        &self,
        nd: NdRange,
        args: &[Arg],
        bufs: &mut [BufData],
        opts: &ExecOptions,
    ) -> Result<DynStats, RuntimeError> {
        nd.validate()?;
        let _span = clgemm_trace::span!("clc.launch", (nd.global[0] * nd.global[1]) as u64);
        if let Some(req) = self.inner.checked.def.reqd_wg_size {
            if nd.local != [req[0] as usize, req[1] as usize] || req[2] != 1 {
                return Err(RuntimeError::BadNdRange(format!(
                    "kernel requires work-group size {req:?}, launch uses {:?}",
                    nd.local
                )));
            }
        }
        let init_regs = self.marshal(args, bufs)?;
        let geom = Geometry {
            global: nd.global,
            local: nd.local,
            groups: [nd.global[0] / nd.local[0], nd.global[1] / nd.local[1]],
        };
        if opts.engine == Engine::Compiled {
            if let Some(plan) = &self.inner.trace {
                let r = crate::ir::engine::launch(self.inner, plan, &geom, &init_regs, bufs, opts);
                if let Ok(stats) = &r {
                    record_launch_metrics(stats, "compiled");
                }
                return r;
            }
        }
        let engine = match opts.engine {
            // The compiled engine was requested but declined the kernel.
            Engine::Compiled => "fallback",
            Engine::Reference => "reference",
        };
        let n_groups = geom.groups[0] * geom.groups[1];
        let grace = (opts.detect_races && n_groups > 1).then(|| GlobalRaceTables::new(bufs));
        let mut arena = RefArena::new();
        let mut stats = DynStats::default();
        for gy in 0..geom.groups[1] {
            for gx in 0..geom.groups[0] {
                let linear = (gy * geom.groups[0] + gx) as u32;
                let s = run_group_in(
                    self.inner,
                    [gx, gy],
                    linear,
                    &geom,
                    &init_regs,
                    bufs,
                    opts,
                    grace.as_ref(),
                    &mut arena,
                )?;
                stats.add(&s);
            }
        }
        record_launch_metrics(&stats, engine);
        Ok(stats)
    }

    /// Validate arguments against the signature and produce the initial
    /// register file (value parameters in their slots). Buffer arguments
    /// are checked for index validity and element-type agreement.
    fn marshal(&self, args: &[Arg], bufs: &[BufData]) -> Result<Vec<Value>, RuntimeError> {
        let ck = &self.inner.checked;
        if args.len() != ck.param_order.len() {
            return Err(RuntimeError::BadArguments(format!(
                "kernel `{}` takes {} arguments, got {}",
                self.inner.name,
                ck.param_order.len(),
                args.len()
            )));
        }
        let mut init = vec![Value::I(0); ck.n_slots];
        let mut buf_i = 0usize;
        let mut val_i = 0usize;
        for (k, is_buf) in ck.param_order.iter().enumerate() {
            if *is_buf {
                let bp = &ck.buffer_params[buf_i];
                match args[k] {
                    Arg::Buf(idx) => {
                        let data = bufs.get(idx).ok_or_else(|| {
                            RuntimeError::BadArguments(format!(
                                "argument {k} references buffer {idx}, only {} provided",
                                bufs.len()
                            ))
                        })?;
                        if data.base() != bp.base {
                            return Err(RuntimeError::BadArguments(format!(
                                "parameter `{}` is a {:?} pointer but buffer {idx} holds {:?}",
                                bp.name,
                                bp.base,
                                data.base()
                            )));
                        }
                        if idx != buf_i {
                            // Buffers must be passed in parameter order:
                            // the VM addresses them by parameter index.
                            return Err(RuntimeError::BadArguments(format!(
                                "buffer argument {k} must use Buf({buf_i}) (buffers are positional)"
                            )));
                        }
                    }
                    other => {
                        return Err(RuntimeError::BadArguments(format!(
                            "parameter `{}` needs a buffer, got {other:?}",
                            bp.name
                        )))
                    }
                }
                buf_i += 1;
            } else {
                let vp = &ck.value_params[val_i];
                let v = match (vp.ty, args[k]) {
                    (Type::Scalar(Base::Int | Base::Uint), Arg::I32(x)) => Value::I(x as i64),
                    (Type::Scalar(Base::Float), Arg::F32(x)) => Value::F32(x),
                    (Type::Scalar(Base::Double), Arg::F64(x)) => Value::F64(x),
                    (ty, got) => {
                        return Err(RuntimeError::BadArguments(format!(
                            "parameter `{}` has type {ty:?}, got {got:?}",
                            vp.name
                        )))
                    }
                };
                init[vp.slot] = v;
                val_i += 1;
            }
        }
        Ok(init)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f64s(b: &BufData) -> &[f64] {
        match b {
            BufData::F64(v) => v,
            other => panic!("expected f64 buffer, got {other:?}"),
        }
    }

    #[test]
    fn scale_kernel_end_to_end() {
        let src = r#"
            __kernel void scale(__global const double* x, __global double* y, double a, int n) {
                int i = get_global_id(0);
                if (i < n) { y[i] = a * x[i]; }
            }
        "#;
        let p = Program::compile(src).unwrap();
        let k = p.kernel("scale").unwrap();
        let mut bufs = vec![
            BufData::F64(vec![1.0, 2.0, 3.0, 4.0]),
            BufData::F64(vec![0.0; 4]),
        ];
        let stats = k
            .launch(
                NdRange::d1(4, 2),
                &[Arg::Buf(0), Arg::Buf(1), Arg::F64(3.0), Arg::I32(4)],
                &mut bufs,
                &ExecOptions::default(),
            )
            .unwrap();
        assert_eq!(f64s(&bufs[1]), &[3.0, 6.0, 9.0, 12.0]);
        assert!(stats.instrs > 0);
        assert_eq!(stats.mem_global_instrs, 8); // 4 loads + 4 stores
    }

    #[test]
    fn two_dimensional_ids() {
        let src = r#"
            __kernel void fill(__global double* y, int w) {
                int i = get_global_id(0);
                int j = get_global_id(1);
                y[j*w + i] = (double)(10*j + i);
            }
        "#;
        let p = Program::compile(src).unwrap();
        let mut bufs = vec![BufData::F64(vec![0.0; 12])];
        p.kernel("fill")
            .unwrap()
            .launch(
                NdRange::d2([4, 3], [2, 1]),
                &[Arg::Buf(0), Arg::I32(4)],
                &mut bufs,
                &ExecOptions::default(),
            )
            .unwrap();
        let want: Vec<f64> = (0..3)
            .flat_map(|j| (0..4).map(move |i| (10 * j + i) as f64))
            .collect();
        assert_eq!(f64s(&bufs[0]), &want[..]);
    }

    #[test]
    fn local_memory_with_barrier_shares_data() {
        let src = r#"
            __kernel void share(__global const double* x, __global double* y) {
                __local double buf[4];
                int l = get_local_id(0);
                int g = get_global_id(0);
                buf[l] = x[g];
                barrier(1);
                int peer = 3 - l;
                y[g] = buf[peer];
            }
        "#;
        let p = Program::compile(src).unwrap();
        let mut bufs = vec![
            BufData::F64(vec![1.0, 2.0, 3.0, 4.0]),
            BufData::F64(vec![0.0; 4]),
        ];
        p.kernel("share")
            .unwrap()
            .launch(
                NdRange::d1(4, 4),
                &[Arg::Buf(0), Arg::Buf(1)],
                &mut bufs,
                &ExecOptions::default(),
            )
            .unwrap();
        assert_eq!(f64s(&bufs[1]), &[4.0, 3.0, 2.0, 1.0]);
    }

    #[test]
    fn same_phase_local_race_is_detected() {
        // Work-items write buf[0] concurrently without a barrier.
        let src = r#"
            __kernel void race(__global double* y) {
                __local double buf[2];
                int l = get_local_id(0);
                buf[0] = (double)l;
                barrier(1);
                y[get_global_id(0)] = buf[0];
            }
        "#;
        let p = Program::compile(src).unwrap();
        let mut bufs = vec![BufData::F64(vec![0.0; 2])];
        let err = p
            .kernel("race")
            .unwrap()
            .launch(
                NdRange::d1(2, 2),
                &[Arg::Buf(0)],
                &mut bufs,
                &ExecOptions::default(),
            )
            .unwrap_err();
        assert!(matches!(err, RuntimeError::LocalRace { .. }), "{err}");
        // With race detection off the same kernel "works" (last writer
        // wins deterministically in this VM).
        let mut bufs = vec![BufData::F64(vec![0.0; 2])];
        let opts = ExecOptions {
            detect_races: false,
            ..Default::default()
        };
        p.kernel("race")
            .unwrap()
            .launch(NdRange::d1(2, 2), &[Arg::Buf(0)], &mut bufs, &opts)
            .unwrap();
    }

    #[test]
    fn barrier_divergence_is_detected() {
        let src = r#"
            __kernel void div(__global double* y) {
                int l = get_local_id(0);
                if (l == 0) { barrier(1); }
                y[get_global_id(0)] = (double)l;
            }
        "#;
        let p = Program::compile(src).unwrap();
        let mut bufs = vec![BufData::F64(vec![0.0; 2])];
        let err = p
            .kernel("div")
            .unwrap()
            .launch(
                NdRange::d1(2, 2),
                &[Arg::Buf(0)],
                &mut bufs,
                &ExecOptions::default(),
            )
            .unwrap_err();
        assert!(
            matches!(err, RuntimeError::BarrierDivergence { .. }),
            "{err}"
        );
    }

    #[test]
    fn out_of_bounds_global_access_is_caught() {
        let src = r#"
            __kernel void oob(__global double* y) {
                y[get_global_id(0) + 100] = 1.0;
            }
        "#;
        let p = Program::compile(src).unwrap();
        let mut bufs = vec![BufData::F64(vec![0.0; 4])];
        let err = p
            .kernel("oob")
            .unwrap()
            .launch(
                NdRange::d1(4, 4),
                &[Arg::Buf(0)],
                &mut bufs,
                &ExecOptions::default(),
            )
            .unwrap_err();
        assert!(matches!(err, RuntimeError::GlobalOob { .. }), "{err}");
    }

    #[test]
    fn vector_load_store_round_trip() {
        let src = r#"
            __kernel void vcopy(__global const float* x, __global float* y) {
                int i = get_global_id(0);
                float4 v = vload4(i, x);
                v = v * 2.0f;
                vstore4(v, i, y);
            }
        "#;
        let p = Program::compile(src).unwrap();
        let mut bufs = vec![
            BufData::F32((0..8).map(|i| i as f32).collect()),
            BufData::F32(vec![0.0; 8]),
        ];
        p.kernel("vcopy")
            .unwrap()
            .launch(
                NdRange::d1(2, 1),
                &[Arg::Buf(0), Arg::Buf(1)],
                &mut bufs,
                &ExecOptions::default(),
            )
            .unwrap();
        match &bufs[1] {
            BufData::F32(v) => assert_eq!(v, &vec![0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn mismatched_ndrange_is_rejected() {
        let src = "__kernel void k(__global double* y){ y[0] = 1.0; }";
        let p = Program::compile(src).unwrap();
        let mut bufs = vec![BufData::F64(vec![0.0; 1])];
        let err = p
            .kernel("k")
            .unwrap()
            .launch(
                NdRange::d1(5, 2),
                &[Arg::Buf(0)],
                &mut bufs,
                &ExecOptions::default(),
            )
            .unwrap_err();
        assert!(matches!(err, RuntimeError::BadNdRange(_)), "{err}");
    }

    #[test]
    fn wrong_argument_type_is_rejected() {
        let src = "__kernel void k(__global double* y, double a){ y[0] = a; }";
        let p = Program::compile(src).unwrap();
        let mut bufs = vec![BufData::F64(vec![0.0; 1])];
        let err = p
            .kernel("k")
            .unwrap()
            .launch(
                NdRange::d1(1, 1),
                &[Arg::Buf(0), Arg::F32(1.0)],
                &mut bufs,
                &ExecOptions::default(),
            )
            .unwrap_err();
        assert!(matches!(err, RuntimeError::BadArguments(_)), "{err}");
    }

    #[test]
    fn wrong_buffer_precision_is_rejected() {
        let src = "__kernel void k(__global double* y){ y[0] = 1.0; }";
        let p = Program::compile(src).unwrap();
        let mut bufs = vec![BufData::F32(vec![0.0; 1])];
        let err = p
            .kernel("k")
            .unwrap()
            .launch(
                NdRange::d1(1, 1),
                &[Arg::Buf(0)],
                &mut bufs,
                &ExecOptions::default(),
            )
            .unwrap_err();
        assert!(matches!(err, RuntimeError::BadArguments(_)), "{err}");
    }

    #[test]
    fn reqd_work_group_size_is_enforced() {
        let src = r#"
            __kernel __attribute__((reqd_work_group_size(2, 2, 1)))
            void k(__global double* y){ y[get_global_id(0)] = 1.0; }
        "#;
        let p = Program::compile(src).unwrap();
        let mut bufs = vec![BufData::F64(vec![0.0; 4])];
        let err = p
            .kernel("k")
            .unwrap()
            .launch(
                NdRange::d2([4, 4], [4, 4]),
                &[Arg::Buf(0)],
                &mut bufs,
                &ExecOptions::default(),
            )
            .unwrap_err();
        assert!(matches!(err, RuntimeError::BadNdRange(_)), "{err}");
        p.kernel("k")
            .unwrap()
            .launch(
                NdRange::d2([4, 2], [2, 2]),
                &[Arg::Buf(0)],
                &mut bufs,
                &ExecOptions::default(),
            )
            .unwrap();
    }

    #[test]
    fn missing_kernel_returns_none() {
        let p = Program::compile("__kernel void k(__global int* x){ x[0]=1; }").unwrap();
        assert!(p.kernel("nope").is_none());
        assert_eq!(p.kernel_names().collect::<Vec<_>>(), vec!["k"]);
    }

    #[test]
    fn stats_count_barriers_per_group() {
        let src = r#"
            __kernel void b(__global double* y) {
                __local double t[2];
                t[get_local_id(0)] = 0.0;
                barrier(1);
                y[get_global_id(0)] = t[get_local_id(0)];
            }
        "#;
        let p = Program::compile(src).unwrap();
        let mut bufs = vec![BufData::F64(vec![0.0; 8])];
        let stats = p
            .kernel("b")
            .unwrap()
            .launch(
                NdRange::d1(8, 2),
                &[Arg::Buf(0)],
                &mut bufs,
                &ExecOptions::default(),
            )
            .unwrap();
        assert_eq!(stats.barriers, 4); // one per work-group, 4 groups
    }
}
