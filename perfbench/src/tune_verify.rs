//! `tune-verify`: the paper's search engine as users run it — one
//! autotune job per op, exactly as `examples/autotune.rs` runs it:
//! `tune` over `SearchSpace::for_device` with default `SearchOpts`, so
//! the winner is verified through codegen and clc. Routine and serve do
//! nothing here.

use crate::harness::Phase;
use crate::spans::Tracer;
use crate::Workload;
use clgemm::tuner::{tune, SearchOpts, SearchSpace};
use clgemm_blas::scalar::Precision;
use clgemm_device::DeviceId;
use clgemm_shim::Rng;

/// The paper's six devices × both precisions: one round of jobs.
fn jobs() -> Vec<(DeviceId, Precision)> {
    DeviceId::TABLE1
        .iter()
        .flat_map(|&d| [(d, Precision::F32), (d, Precision::F64)])
        .collect()
}

pub struct TuneVerify;

impl Workload for TuneVerify {
    type State = ();

    fn describe(&self) -> Vec<String> {
        vec![format!(
            "{} tuning jobs per round (the six Table I devices x f32/f64, seeded order): tune over SearchSpace::for_device, default SearchOpts",
            jobs().len()
        )]
    }

    fn rounds(&self, seconds: u64) -> usize {
        // One round takes about 5 s on the reference host.
        ((seconds as f64 / 5.0).round() as usize).max(2)
    }

    fn setup(&self, _seed: u64, checks: &mut Vec<String>) {
        let mut warm = Phase::default();
        job(DeviceId::Tahiti, Precision::F64, &mut warm);
        checks.append(&mut warm.check_failures);
    }

    fn run(&self, _st: &mut (), seed: u64, rounds: usize, tracer: &mut Tracer) -> Phase {
        let mut rng = Rng::new(seed);
        let mut phase = Phase::default();
        for _ in 0..rounds {
            let mut order: Vec<(usize, (DeviceId, Precision))> =
                jobs().into_iter().enumerate().collect();
            rng.shuffle(&mut order);
            for (slot, (device, prec)) in order {
                let m = phase.mark();
                job(device, prec, &mut phase);
                phase.end_unit(slot, m);
                tracer.between_ops();
            }
        }
        phase
    }
}

fn job(device: DeviceId, prec: Precision, phase: &mut Phase) {
    let spec = device.spec();
    let space = SearchSpace::for_device(&spec);
    let opts = SearchOpts::default();
    let t0 = phase.clock.now();
    let res = phase.clock.time(|| {
        let _s = clgemm_trace::span!("bench.tune");
        tune(&spec, prec, &space, &opts)
    });
    phase.latency((phase.clock.now() - t0) * 1e3);
    phase.attempted += 1;
    phase.ops += 1;
    let p = res.best.params;
    // The verification GEMM `verify_kernel` runs: one work-group tile,
    // two K blocks deep.
    let k = p.k_multiple().max(2 * p.kwg.min(p.k_multiple()));
    phase.flops += 2.0 * (p.mwg * p.nwg * k) as f64;
    phase.model_gflops.push(res.best.gflops);
    phase.tuner_candidates += res.candidates as u64;
    phase.tuner_measured += (res.candidates - res.pruned) as u64;
    phase.tuner_failures += res.failures as u64;
    phase.check(res.verified, || {
        format!("{device:?} {prec}: winner not verified")
    });
    phase.id("candidates", res.candidates);
    phase.id("failures", res.failures);
    phase.id(
        "winner",
        format!("{device:?} {prec} N={} {}", res.best.n, p.describe()),
    );
}
