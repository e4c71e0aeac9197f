//! Per-layer metrics of a traced phase, named after the repository's
//! modules. Each is computed from the spans and counters the program
//! already records, plus the bench's own spans around public calls.

use crate::harness::{median, percentile, Phase};
use crate::spans::Trace;
use clgemm::params::KernelParams;
use clgemm_blas::layout::round_up;
use clgemm_blas::scalar::Precision;

/// One `TunedGemm::gemm_with` call, for bytes and flops per span.
#[derive(Debug, Clone, Copy)]
pub struct RoutineCall {
    pub m: usize,
    pub n: usize,
    pub k: usize,
    pub precision: Precision,
    pub params: KernelParams,
}

impl RoutineCall {
    fn flops(&self) -> f64 {
        2.0 * (self.m * self.n * self.k) as f64
    }

    /// Bytes each copy phase reads plus writes, computed from the
    /// logical and padded dimensions: `(pack_a, pack_b, stage, merge)`.
    pub fn copy_bytes(&self) -> (f64, f64, f64, f64) {
        let p = &self.params;
        let (m, n, k) = (self.m, self.n, self.k);
        let (mp, np, kp) = (
            round_up(m, p.mwg),
            round_up(n, p.nwg),
            round_up(k, p.k_multiple()),
        );
        let e = self.precision.bytes() as f64;
        (
            (m * k + kp * mp) as f64 * e,
            (k * n + kp * np) as f64 * e,
            (m * n + mp * np) as f64 * e,
            (2 * m * n) as f64 * e,
        )
    }
}

/// Serving counters of the timed phase (snapshot differences).
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeTally {
    pub completed: u64,
    pub coalesced: u64,
    pub shed_admit: u64,
    pub shed_batch: u64,
    pub batches: u64,
    pub steals: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cold_starts: u64,
    pub refines: u64,
    pub tile_substitutions: u64,
}

impl ServeTally {
    pub fn identity(&self) -> [(&'static str, u64); 11] {
        [
            ("completed", self.completed),
            ("coalesced", self.coalesced),
            ("shed_admit", self.shed_admit),
            ("shed_batch", self.shed_batch),
            ("batches", self.batches),
            ("steals", self.steals),
            ("cache_hits", self.cache_hits),
            ("cache_misses", self.cache_misses),
            ("cold_starts_timed", self.cold_starts),
            ("refines_timed", self.refines),
            ("tile_substitutions", self.tile_substitutions),
        ]
    }
}

/// The host ceilings probed in the same run.
#[derive(Debug, Clone, Copy)]
pub struct Ceilings {
    pub f32_1t: f64,
    pub f32_all: f64,
    pub f64_1t: f64,
    pub f64_all: f64,
}

impl Ceilings {
    fn all_cores(&self, p: Precision) -> f64 {
        match p {
            Precision::F32 => self.f32_all,
            Precision::F64 => self.f64_all,
        }
    }
}

/// clc launch counters of the traced phase, from the registry.
#[derive(Debug, Clone, Copy, Default)]
pub struct VmCounters {
    pub launches: u64,
    /// Launches that ran on any engine but the compiled one.
    pub fallbacks: u64,
    pub instrs: u64,
}

pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

struct Out {
    metrics: Vec<Metric>,
    lines: Vec<String>,
    op_s: f64,
}

impl Out {
    /// One layer's metrics on one line, with the share of op time the
    /// layer's own busy time is (the most it can save).
    fn layer(&mut self, layer: &str, own_s: Option<f64>, ms: &[(&str, &'static str, f64)]) {
        let mut line = format!("layer {layer}:");
        for &(m, unit, value) in ms {
            // An empty float sum is -0.0; report it as 0.
            let value = value + 0.0;
            line += &format!(" {m}={value:.6} {unit}");
            self.metrics.push(Metric {
                name: format!("{layer}.{m}"),
                unit,
                value,
            });
        }
        if let Some(s) = own_s {
            line += &format!(
                "  [share {:.1}% of op time]",
                100.0 * ratio(s, self.op_s) + 0.0
            );
        }
        self.lines.push(line);
    }
}

const ROUTINE_PARENTS: [&str; 1] = ["serve.request.execute"];

/// Every per-layer metric, in `BENCHMARK.json` order, and one report
/// line per layer.
pub fn compute(
    trace: &Trace,
    phase: &Phase,
    ceilings: &Ceilings,
    untraced_ops_per_s: f64,
    vm: VmCounters,
) -> (Vec<Metric>, Vec<String>) {
    let mut out = Out {
        metrics: Vec::new(),
        lines: Vec::new(),
        op_s: phase.clock.now(),
    };

    // Phase spans of the routine, joined to the call they belong to.
    let call_of = |span: &str| -> Vec<(f64, Option<RoutineCall>)> {
        trace
            .with_parent(span, &ROUTINE_PARENTS)
            .map(|(e, parent)| {
                let call = parent.and_then(|p| phase.routine_calls.get(&(p.name, p.tag)).copied());
                (e.dur_ns as f64 * 1e-9, call)
            })
            .collect()
    };
    let kernel = call_of("routine.kernel");
    let k_busy: f64 = kernel.iter().map(|(s, _)| s).sum();
    let k_flops: f64 = kernel
        .iter()
        .filter_map(|(_, c)| c.map(|c| c.flops()))
        .sum();
    let k_ideal: f64 = kernel
        .iter()
        .filter_map(|(_, c)| c.map(|c| c.flops() / (ceilings.all_cores(c.precision) * 1e9)))
        .sum();
    out.layer(
        "core.executor",
        Some(k_busy),
        &[
            ("busy_s", "s", k_busy),
            ("gflops", "GFlop/s", ratio(k_flops, k_busy) * 1e-9),
            ("pct_fma_peak", "%", 100.0 * ratio(k_ideal, k_busy)),
        ],
    );

    let copy = |spans: &[&str], bytes: fn(&RoutineCall) -> f64| -> (f64, f64) {
        spans
            .iter()
            .flat_map(|s| call_of(s))
            .fold((0.0, 0.0), |(t, b), (s, c)| {
                (t + s, b + c.map_or(0.0, |c| bytes(&c)))
            })
    };
    let pack_a = copy(&["routine.pack_a"], |c| c.copy_bytes().0);
    let pack_b = copy(&["routine.pack_b"], |c| c.copy_bytes().1);
    let pack = (pack_a.0 + pack_b.0, pack_a.1 + pack_b.1);
    let stage = copy(&["routine.stage_c"], |c| c.copy_bytes().2);
    let merge = copy(&["routine.merge_c"], |c| c.copy_bytes().3);
    for (name, (busy, bytes)) in [
        ("blas.pack", pack),
        ("blas.stage", stage),
        ("blas.merge", merge),
    ] {
        out.layer(
            name,
            Some(busy),
            &[
                ("busy_s", "s", busy),
                ("gbs", "GB/s", ratio(bytes, busy) * 1e-9),
            ],
        );
    }

    let routine_phases = [
        "routine.pack_a",
        "routine.pack_b",
        "routine.stage_c",
        "routine.kernel",
        "routine.merge_c",
    ];
    let unattributed = trace.self_s("routine.gemm", &routine_phases);
    out.layer(
        "core.routine",
        Some(unattributed),
        &[
            ("calls", "count", trace.count("routine.gemm") as f64),
            ("busy_s", "s", trace.busy_s("routine.gemm")),
            ("unattributed_s", "s", unattributed),
        ],
    );
    out.layer(
        "core.tile",
        None,
        &[("substitutions", "count", phase.tile_substitutions as f64)],
    );
    let batched_busy = trace.busy_s("routine.gemm_batch");
    out.layer(
        "core.batched",
        Some(batched_busy),
        &[
            ("calls", "count", phase.batched_calls as f64),
            ("entries", "count", phase.batched_entries as f64),
            ("busy_s", "s", batched_busy),
            (
                "direct_share",
                "ratio",
                ratio(phase.batched_direct as f64, phase.batched_calls as f64),
            ),
        ],
    );

    let serve = phase.serve.unwrap_or_default();
    let submit = trace.busy_s("bench.submit");
    out.layer(
        "serve.admission",
        Some(submit),
        &[
            ("busy_s", "s", submit),
            ("shed", "count", serve.shed_admit as f64),
        ],
    );
    let mut waits: Vec<f64> = trace.durations_s("serve.request.queue_wait");
    waits.sort_by(f64::total_cmp);
    out.layer(
        "serve.queue",
        None,
        &[
            ("wait_ms_p50", "ms", percentile(&waits, 0.5) * 1e3),
            ("wait_ms_p99", "ms", percentile(&waits, 0.99) * 1e3),
        ],
    );
    let drain_self = trace.self_s(
        "serve.drain",
        &["serve.batch", "serve.schedule", "serve.batch.execute"],
    );
    out.layer(
        "serve.server",
        Some(drain_self),
        &[
            ("drain_busy_s", "s", trace.busy_s("serve.drain")),
            ("drain_self_s", "s", drain_self),
        ],
    );
    let answered = (serve.completed + serve.coalesced) as f64;
    out.layer(
        "serve.inflight",
        None,
        &[(
            "hit_share",
            "ratio",
            ratio(serve.coalesced as f64, answered),
        )],
    );
    out.layer(
        "serve.batch",
        Some(trace.busy_s("serve.batch")),
        &[(
            "size_mean",
            "count",
            ratio(serve.completed as f64, serve.batches as f64),
        )],
    );
    let sched = trace.busy_s("serve.schedule");
    out.layer(
        "serve.scheduler",
        Some(sched),
        &[
            ("busy_s", "s", sched),
            ("steals", "count", serve.steals as f64),
        ],
    );
    out.layer(
        "serve.cache",
        None,
        &[
            (
                "hit_share",
                "ratio",
                ratio(
                    serve.cache_hits as f64,
                    (serve.cache_hits + serve.cache_misses) as f64,
                ),
            ),
            ("cold_starts_timed", "count", serve.cold_starts as f64),
            ("refines_timed", "count", serve.refines as f64),
        ],
    );
    // Drift per batch: the device model's seconds for the requests the
    // batch executed against the batch span's wall seconds.
    let drift_ms: Vec<f64> = trace
        .children("serve.batch.execute", "serve.request.execute")
        .into_iter()
        .map(|(b, reqs)| {
            let modelled: f64 = reqs
                .iter()
                .filter_map(|r| phase.request_model_s.get(&r.tag))
                .sum();
            (modelled - b.dur_ns as f64 * 1e-9).abs() * 1e3
        })
        .collect();
    let execute = trace.busy_s("serve.batch.execute");
    out.layer(
        "serve.execute",
        Some(execute),
        &[
            ("busy_s", "s", execute),
            ("model_drift_ms_p50", "ms", median(&drift_ms)),
        ],
    );

    let stages = [
        "tuner.stage1",
        "tuner.stage2",
        "tuner.stage3",
        "tuner.verify",
    ];
    let space = trace.self_s("tuner.run", &stages);
    out.layer(
        "tuner.space",
        Some(space),
        &[
            ("busy_s", "s", space),
            ("candidates", "count", phase.tuner_candidates as f64),
        ],
    );
    let (s1, s2) = (trace.busy_s("tuner.stage1"), trace.busy_s("tuner.stage2"));
    out.layer(
        "tuner.search",
        Some(s1 + s2 + trace.busy_s("tuner.stage3")),
        &[
            ("stage1_busy_s", "s", s1),
            ("stage2_busy_s", "s", s2),
            ("evals_per_s", "1/s", ratio(phase.tuner_measured as f64, s1)),
            (
                "failed_share",
                "ratio",
                ratio(phase.tuner_failures as f64, phase.tuner_measured as f64),
            ),
        ],
    );
    let verify = trace.busy_s("tuner.verify");
    out.layer("tuner.verify", Some(verify), &[("busy_s", "s", verify)]);

    // The outermost span around each compile: the bench's own span
    // around `build_program`, else the program's IR-pipeline span (the
    // tuner's verification compiles without a span around the front
    // end, so there only the IR pipeline is counted).
    let bare: Vec<f64> = trace
        .with_parent("clc.compile", &["bench.build_program"])
        .filter(|(_, p)| p.is_none())
        .map(|(e, _)| e.dur_ns as f64 * 1e-9)
        .collect();
    let compile = trace.busy_s("bench.build_program") + bare.iter().sum::<f64>();
    out.layer(
        "clc.compile",
        Some(compile),
        &[
            (
                "calls",
                "count",
                (trace.count("bench.build_program") + bare.len() as u64) as f64,
            ),
            ("busy_s", "s", compile),
        ],
    );
    let codegen = trace.busy_s("bench.generate");
    out.layer("codegen", Some(codegen), &[("busy_s", "s", codegen)]);
    let launch = trace.busy_s("clc.launch");
    out.layer(
        "clc.launch",
        Some(launch),
        &[
            ("busy_s", "s", launch),
            ("instrs_per_s", "1/s", ratio(vm.instrs as f64, launch)),
            (
                "fallback_share",
                "ratio",
                ratio(vm.fallbacks as f64, vm.launches as f64),
            ),
        ],
    );
    let sim = trace.self_s("bench.enqueue_kernel", &["clc.launch"])
        + trace.busy_s("bench.write_buffers")
        + trace.busy_s("bench.read_back");
    out.layer("sim.runtime", Some(sim), &[("self_s", "s", sim)]);

    out.layer(
        "trace",
        None,
        &[
            (
                "overhead_ratio",
                "ratio",
                ratio(phase.ops_per_s(), untraced_ops_per_s),
            ),
            ("events_lost", "count", trace.lost as f64),
        ],
    );
    out.layer(
        "host",
        None,
        &[
            ("fma_peak_gflops.f32_1t", "GFlop/s", ceilings.f32_1t),
            ("fma_peak_gflops.f32_all", "GFlop/s", ceilings.f32_all),
            ("fma_peak_gflops.f64_1t", "GFlop/s", ceilings.f64_1t),
            ("fma_peak_gflops.f64_all", "GFlop/s", ceilings.f64_all),
        ],
    );
    (out.metrics, out.lines)
}
