//! `opencl-run`: generated kernels through the `clgemm-sim` OpenCL-style
//! runtime — `generate` → `build_program` → buffers → functional
//! `enqueue_kernel` with race detection and a launch profile → read
//! back. clc compile plus launch is almost the whole op.
//!
//! A round runs the twelve Table II winners, each on its own device at
//! an edge of 256–384 that is a multiple of the winner's block LCM,
//! and the §V copy-free direct kernel for all four GEMM types at a
//! ragged edge. The direct kernel's bounds guards diverge, which the
//! compiled clc engine declines today, so it runs on the fallback VM;
//! the Table II kernels run compiled.

use crate::harness::Phase;
use crate::spans::Tracer;
use crate::Workload;
use clgemm::codegen::{generate, KERNEL_NAME};
use clgemm::direct::{
    direct_profile, generate_direct, run_direct_native, DirectParams, DIRECT_KERNEL_NAME,
};
use clgemm::executor::run_native;
use clgemm::paper_params::{all_winners, PaperEntry};
use clgemm::params::KernelParams;
use clgemm::profile::launch_profile;
use clgemm_blas::layout::PackedDims;
use clgemm_blas::matrix::{Matrix, StorageOrder};
use clgemm_blas::scalar::{Precision, Scalar};
use clgemm_blas::GemmType;
use clgemm_device::{DeviceId, DeviceSpec, KernelLaunchProfile};
use clgemm_shim::Rng;
use clgemm_sim::{BufferId, ClError, CommandQueue, Context, ExecMode, KernelArg, SimDevice};

/// Edge of the direct-kernel jobs: a multiple of nothing the kernel
/// blocks by.
const DIRECT_EDGE: usize = 249;
/// Precision of the direct job per GEMM type (both occur).
const DIRECT_JOBS: [(GemmType, Precision); 4] = [
    (GemmType::NN, Precision::F32),
    (GemmType::NT, Precision::F64),
    (GemmType::TN, Precision::F32),
    (GemmType::TT, Precision::F64),
];

#[derive(Clone, Copy)]
enum Job {
    TableII(usize),
    Direct(usize),
}

/// The smallest multiple of the winner's block LCM at or above 256.
fn table_edge(p: &KernelParams) -> usize {
    256usize.div_ceil(p.lcm_block()) * p.lcm_block()
}

pub struct OpenclRun {
    winners: Vec<PaperEntry>,
}

impl OpenclRun {
    pub fn new() -> OpenclRun {
        OpenclRun {
            winners: all_winners(),
        }
    }

    fn jobs(&self) -> Vec<Job> {
        (0..self.winners.len())
            .map(Job::TableII)
            .chain((0..DIRECT_JOBS.len()).map(Job::Direct))
            .collect()
    }

    fn job(&self, job: Job, rng: &mut Rng, phase: &mut Phase) {
        match job {
            Job::TableII(i) => {
                let e = &self.winners[i];
                match e.params.precision {
                    Precision::F32 => table_job::<f32>(e.device, &e.params, rng, phase),
                    Precision::F64 => table_job::<f64>(e.device, &e.params, rng, phase),
                }
            }
            Job::Direct(i) => {
                let (ty, prec) = DIRECT_JOBS[i];
                match prec {
                    Precision::F32 => direct_job::<f32>(ty, rng, phase),
                    Precision::F64 => direct_job::<f64>(ty, rng, phase),
                }
            }
        }
    }
}

impl Workload for OpenclRun {
    type State = ();

    fn describe(&self) -> Vec<String> {
        let mut lines = vec![format!(
            "{} kernel jobs per round (seeded order), functional launches with race detection:",
            self.jobs().len()
        )];
        for e in &self.winners {
            let n = table_edge(&e.params);
            lines.push(format!(
                "  Table II {} winner on {:?} at {n}^3",
                e.params.precision, e.device
            ));
        }
        lines.push(format!(
            "  direct kernel NN f32, NT f64, TN f32, TT f64 on Tahiti at {DIRECT_EDGE}^3"
        ));
        lines
    }

    fn rounds(&self, seconds: u64) -> usize {
        // One round takes about 3.2 s on the reference host.
        ((seconds as f64 / 3.2).round() as usize).max(2)
    }

    fn setup(&self, seed: u64, checks: &mut Vec<String>) {
        let mut rng = Rng::new(seed ^ 0x0c1);
        let mut warm = Phase::default();
        self.job(Job::TableII(0), &mut rng, &mut warm);
        checks.append(&mut warm.check_failures);
    }

    fn run(&self, _st: &mut (), seed: u64, rounds: usize, tracer: &mut Tracer) -> Phase {
        let mut rng = Rng::new(seed);
        let mut phase = Phase::default();
        for _ in 0..rounds {
            let mut order: Vec<(usize, Job)> = self.jobs().into_iter().enumerate().collect();
            rng.shuffle(&mut order);
            for (slot, job) in order {
                let m = phase.mark();
                self.job(job, &mut rng, &mut phase);
                phase.end_unit(slot, m);
                tracer.between_ops();
            }
        }
        phase
    }
}

/// The per-precision half of the runtime's buffer API.
trait SimScalar: Scalar {
    fn create(ctx: &mut Context, len: usize) -> Result<BufferId, ClError>;
    fn write(ctx: &mut Context, id: BufferId, data: &[Self]) -> Result<(), ClError>;
    fn read(q: &mut CommandQueue, ctx: &Context, id: BufferId) -> Result<Vec<Self>, ClError>;
    fn arg(v: Self) -> KernelArg;
}

impl SimScalar for f32 {
    fn create(ctx: &mut Context, len: usize) -> Result<BufferId, ClError> {
        ctx.create_buffer_f32(len)
    }
    fn write(ctx: &mut Context, id: BufferId, data: &[f32]) -> Result<(), ClError> {
        ctx.write_f32(id, data)
    }
    fn read(q: &mut CommandQueue, ctx: &Context, id: BufferId) -> Result<Vec<f32>, ClError> {
        q.enqueue_read_f32(ctx, id)
    }
    fn arg(v: f32) -> KernelArg {
        KernelArg::F32(v)
    }
}

impl SimScalar for f64 {
    fn create(ctx: &mut Context, len: usize) -> Result<BufferId, ClError> {
        ctx.create_buffer_f64(len)
    }
    fn write(ctx: &mut Context, id: BufferId, data: &[f64]) -> Result<(), ClError> {
        ctx.write_f64(id, data)
    }
    fn read(q: &mut CommandQueue, ctx: &Context, id: BufferId) -> Result<Vec<f64>, ClError> {
        q.enqueue_read_f64(ctx, id)
    }
    fn arg(v: f64) -> KernelArg {
        KernelArg::F64(v)
    }
}

fn random_vec<T: Scalar>(len: usize, rng: &mut Rng) -> Vec<T> {
    (0..len)
        .map(|_| T::from_f64(2.0 * rng.f64() - 1.0))
        .collect()
}

/// What one kernel job launches.
struct Launch<'a, T> {
    name: &'static str,
    source: &'a str,
    nd: clgemm_clc::NdRange,
    /// Operand buffers `A`, `B`, `C` (in that argument order).
    bufs: [&'a [T]; 3],
    /// Scalar arguments after the buffers.
    scalars: Vec<KernelArg>,
    profile: KernelLaunchProfile,
    device: &'a DeviceSpec,
}

/// The timed part of a job: build, buffers, launch, read back. Returns
/// `C` and the launch's dynamic instruction count and virtual seconds.
fn launch<T: SimScalar>(
    l: &Launch<'_, T>,
    phase: &mut Phase,
) -> Result<(Vec<T>, u64, f64), ClError> {
    phase.clock.time(|| {
        let mut ctx = SimDevice::new(l.device.clone()).create_context();
        let prog = {
            let _s = clgemm_trace::span!("bench.build_program");
            ctx.build_program(l.source)?
        };
        let ids = {
            let _s = clgemm_trace::span!("bench.write_buffers");
            let mut ids = [None; 3];
            for (slot, data) in ids.iter_mut().zip(l.bufs) {
                let id = T::create(&mut ctx, data.len())?;
                T::write(&mut ctx, id, data)?;
                *slot = Some(id);
            }
            ids.map(|id| id.expect("every buffer created"))
        };
        let mut args: Vec<KernelArg> = ids.iter().map(|&id| KernelArg::Buf(id)).collect();
        args.extend(&l.scalars);
        let mut q = CommandQueue::new();
        let (instrs, seconds) = {
            let _s = clgemm_trace::span!("bench.enqueue_kernel");
            let ev = q.enqueue_kernel(
                &mut ctx,
                &prog,
                l.name,
                l.nd,
                &args,
                Some(&l.profile),
                ExecMode::Functional { detect_races: true },
            )?;
            (ev.stats.map_or(0, |s| s.instrs), ev.seconds())
        };
        let _s = clgemm_trace::span!("bench.read_back");
        Ok((T::read(&mut q, &ctx, ids[2])?, instrs, seconds))
    })
}

/// Record a finished job and compare its `C` with the oracle's bit for
/// bit.
fn finish<T: Scalar>(
    what: String,
    flops: f64,
    result: Result<(Vec<T>, u64, f64), ClError>,
    oracle: &[T],
    t0: f64,
    phase: &mut Phase,
) {
    phase.attempted += 1;
    let (out, instrs, seconds) = match result {
        Ok(r) => r,
        Err(e) => {
            phase.failed += 1;
            phase.check_failures.push(format!("{what}: {e}"));
            return;
        }
    };
    phase.latency((phase.clock.now() - t0) * 1e3);
    phase.ops += 1;
    phase.flops += flops;
    phase.model_gflops.push(flops / seconds * 1e-9);
    phase.id("instrs_per_launch", format!("{what}: {instrs}"));
    let same = out.len() == oracle.len()
        && out
            .iter()
            .zip(oracle)
            .all(|(a, b)| a.to_f64().to_bits() == b.to_f64().to_bits());
    phase.check(same, || {
        format!("{what}: launch output differs from the native oracle")
    });
}

fn table_job<T: SimScalar>(device: DeviceId, p: &KernelParams, rng: &mut Rng, phase: &mut Phase) {
    let n = table_edge(p);
    let a_dims = PackedDims::new(n, n, p.mwg, p.kwg).expect("edge divides the blocking");
    let b_dims = PackedDims::new(n, n, p.nwg, p.kwg).expect("edge divides the blocking");
    let a = random_vec::<T>(a_dims.len(), rng);
    let b = random_vec::<T>(b_dims.len(), rng);
    let c = random_vec::<T>(n * n, rng);
    let (alpha, beta) = crate::inputs::scalars::<T>(rng);
    let spec = device.spec();
    let t0 = phase.clock.now();
    let gen = phase.clock.time(|| {
        let _s = clgemm_trace::span!("bench.generate");
        generate(p).expect("Table II parameters generate")
    });
    let nd = gen.ndrange(n, n);
    let l = Launch {
        name: KERNEL_NAME,
        source: &gen.source,
        nd,
        bufs: [&a, &b, &c],
        scalars: vec![
            KernelArg::I32(n as i32),
            KernelArg::I32(n as i32),
            KernelArg::I32(n as i32),
            T::arg(alpha),
            T::arg(beta),
        ],
        profile: launch_profile(p, &spec, n, n, n),
        device: &spec,
    };
    let result = launch(&l, phase);
    let mut oracle = c.clone();
    run_native(
        n,
        n,
        n,
        alpha,
        &a,
        a_dims,
        p.layout_a,
        &b,
        b_dims,
        p.layout_b,
        beta,
        &mut oracle,
    );
    let what = format!("Table II {} on {device:?} at {n}^3", p.precision);
    finish(what, 2.0 * (n * n * n) as f64, result, &oracle, t0, phase);
}

fn direct_job<T: SimScalar>(ty: GemmType, rng: &mut Rng, phase: &mut Phase) {
    let n = DIRECT_EDGE;
    let dp = DirectParams::default_for(ty, T::PRECISION);
    let mat = |rng: &mut Rng| {
        Matrix::<T>::from_fn(n, n, StorageOrder::ColMajor, |_, _| {
            T::from_f64(2.0 * rng.f64() - 1.0)
        })
    };
    let (a, b, c) = (mat(rng), mat(rng), mat(rng));
    let (alpha, beta) = crate::inputs::scalars::<T>(rng);
    let spec = DeviceId::Tahiti.spec();
    let t0 = phase.clock.now();
    let gen = phase.clock.time(|| {
        let _s = clgemm_trace::span!("bench.generate");
        generate_direct(&dp).expect("default direct parameters generate")
    });
    let ld = KernelArg::I32(n as i32);
    let l = Launch {
        name: DIRECT_KERNEL_NAME,
        source: &gen.source,
        nd: dp.ndrange(n, n),
        bufs: [a.as_slice(), b.as_slice(), c.as_slice()],
        // m, n, k, lda, ldb, ldc: every matrix is a tight n × n.
        scalars: vec![ld, ld, ld, ld, ld, ld, T::arg(alpha), T::arg(beta)],
        profile: direct_profile(&dp, &spec, n, n, n),
        device: &spec,
    };
    let result = launch(&l, phase);
    let mut oracle = c.clone();
    run_direct_native(ty, alpha, &a, &b, beta, &mut oracle);
    let what = format!("direct {ty} {} at {n}^3", T::PRECISION);
    finish(
        what,
        2.0 * (n * n * n) as f64,
        result,
        oracle.as_slice(),
        t0,
        phase,
    );
}
