//! The three-stage search procedure (§III-F) plus functional verification.

use crate::codegen::{generate, KERNEL_NAME};
use crate::executor::run_native;
use crate::params::KernelParams;
use crate::predict::{FeasibleSet, PruneReason};
use crate::profile::launch_profile;
use crate::tuner::space::{SearchSpace, TilePoint};
use clgemm_blas::layout::round_up;
use clgemm_blas::scalar::Precision;
use clgemm_clc::{Arg, BufData, ExecOptions, Program};
use clgemm_device::{estimate, DeviceKind, DeviceSpec};
use clgemm_shim::par::par_task_map;
use clgemm_shim::{Json, JsonError};
use clgemm_trace::Registry;

/// Options for one tuning run.
#[derive(Debug, Clone)]
pub struct SearchOpts {
    /// How many stage-1 survivors get the full size sweep (paper: 50).
    pub top_k: usize,
    /// Stage-2 sweep upper bound (paper: 8192).
    pub max_n: usize,
    /// Stage-1 base problem size; `None` picks the paper's default,
    /// [`stage1_base`].
    pub stage1_base: Option<usize>,
    /// Cap on stage-2 sweep points per kernel (the paper measures every
    /// LCM multiple; a cap keeps tests fast without changing winners).
    pub max_sweep_points: usize,
    /// Functionally verify the winner (generate → compile → run in the
    /// VM → compare against the reference) before reporting it.
    pub verify_winner: bool,
    /// Multiplicative measurement noise amplitude (0 = deterministic).
    /// Used by robustness tests of the selection procedure.
    pub noise: f64,
    /// Seed for the noise generator.
    pub noise_seed: u64,
    /// Prune stage 1 through the analytical predictor's feasible set
    /// ([`crate::predict::FeasibleSet`]) before measuring — ≥10× fewer
    /// candidates with the winner preserved (within model noise).
    pub predictor_prune: bool,
}

impl Default for SearchOpts {
    fn default() -> Self {
        SearchOpts {
            top_k: 50,
            max_n: 8192,
            stage1_base: None,
            max_sweep_points: 64,
            verify_winner: true,
            noise: 0.0,
            noise_seed: 0,
            predictor_prune: false,
        }
    }
}

/// One measured kernel: parameters plus achieved GFlop/s.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    pub params: KernelParams,
    /// Problem size of the best measurement.
    pub n: usize,
    pub gflops: f64,
}

impl Measurement {
    /// Serialise to the shim JSON value used by [`crate::repo::KernelRepo`].
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("params", self.params.to_json()),
            ("n", Json::from(self.n)),
            ("gflops", Json::from(self.gflops)),
        ])
    }

    /// Parse from the shim JSON value written by [`Measurement::to_json`].
    pub fn from_json(v: &Json) -> Result<Measurement, JsonError> {
        Ok(Measurement {
            params: KernelParams::from_json(v.field("params")?)?,
            n: v.field("n")?.expect_usize()?,
            gflops: v.field("gflops")?.expect_f64()?,
        })
    }
}

/// The outcome of one tuning run.
#[derive(Debug, Clone, PartialEq)]
pub struct TuningResult {
    pub device: String,
    pub precision: Precision,
    /// The winning kernel.
    pub best: Measurement,
    /// Peak-efficiency of the winner against the device's listed peak.
    pub efficiency: f64,
    /// Stage-2 survivors in rank order (winner first).
    pub top: Vec<Measurement>,
    /// Winner's performance across the stage-2 size sweep.
    pub sweep: Vec<(usize, f64)>,
    /// Number of candidates enumerated (≈ the paper's "tens of
    /// thousands of kernel variants").
    pub candidates: usize,
    /// Candidates that failed launch/resource checks during measurement
    /// (the paper's uncounted "failed" kernels).
    pub failures: usize,
    /// Candidates removed before measurement by the analytical
    /// predictor's feasible set (0 unless `predictor_prune` was set).
    pub pruned: usize,
    /// Whether the winner passed functional verification.
    pub verified: bool,
}

impl TuningResult {
    /// Serialise to the shim JSON value used by [`crate::repo::KernelRepo`].
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("device", Json::from(self.device.as_str())),
            ("precision", Json::from(format!("{:?}", self.precision))),
            ("best", self.best.to_json()),
            ("efficiency", Json::from(self.efficiency)),
            (
                "top",
                Json::Arr(self.top.iter().map(Measurement::to_json).collect()),
            ),
            (
                "sweep",
                Json::Arr(
                    self.sweep
                        .iter()
                        .map(|&(n, g)| Json::Arr(vec![Json::from(n), Json::from(g)]))
                        .collect(),
                ),
            ),
            ("candidates", Json::from(self.candidates)),
            ("failures", Json::from(self.failures)),
            ("pruned", Json::from(self.pruned)),
            ("verified", Json::from(self.verified)),
        ])
    }

    /// Parse from the shim JSON value written by [`TuningResult::to_json`].
    pub fn from_json(v: &Json) -> Result<TuningResult, JsonError> {
        let top = v
            .field("top")?
            .expect_arr()?
            .iter()
            .map(Measurement::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let sweep = v
            .field("sweep")?
            .expect_arr()?
            .iter()
            .map(|pt| {
                let pair = pt.expect_arr()?;
                if pair.len() != 2 {
                    return Err(JsonError::new("sweep point is not a [n, gflops] pair"));
                }
                Ok((pair[0].expect_usize()?, pair[1].expect_f64()?))
            })
            .collect::<Result<Vec<_>, JsonError>>()?;
        Ok(TuningResult {
            device: v.field("device")?.expect_str()?.to_string(),
            precision: v
                .field("precision")?
                .expect_str()?
                .parse()
                .map_err(JsonError::new)?,
            best: Measurement::from_json(v.field("best")?)?,
            efficiency: v.field("efficiency")?.expect_f64()?,
            top,
            sweep,
            candidates: v.field("candidates")?.expect_usize()?,
            failures: v.field("failures")?.expect_usize()?,
            // Absent in documents written before the predictor existed.
            pruned: v.get("pruned").and_then(Json::as_usize).unwrap_or(0),
            verified: v.field("verified")?.expect_bool()?,
        })
    }
}

/// Measure one candidate at one size with the timing model; `None` when
/// the kernel cannot launch (counted as a failure).
#[must_use]
pub fn measure_gflops(p: &KernelParams, dev: &DeviceSpec, n: usize) -> Option<f64> {
    let prof = launch_profile(p, dev, n, n, n);
    let est = estimate(dev, &prof).ok()?;
    Some(est.gflops(2.0 * (n as f64).powi(3)))
}

/// The paper's stage-1 base problem size on `dev` (§III-F): 4096 on
/// GPUs, 1536 on CPUs.
#[must_use]
pub fn stage1_base(dev: &DeviceSpec) -> usize {
    match dev.kind {
        DeviceKind::Gpu => 4096,
        DeviceKind::Cpu => 1536,
    }
}

/// Stage-1 problem size for a candidate: `⌊base/LCM⌋·LCM` (§III-F), or
/// `base` rounded up when the LCM exceeds it. The strategies and the
/// analytical predictor score at this size too.
pub fn stage1_n(p: &KernelParams, base: usize) -> usize {
    let lcm = p.lcm_block();
    if lcm == 0 || lcm > base {
        round_up(base, lcm.max(1))
    } else {
        (base / lcm) * lcm
    }
}

/// Deterministic per-candidate noise factor in `[1-amp, 1+amp]`.
fn noise_factor(seed: u64, idx: usize, amp: f64) -> f64 {
    if amp == 0.0 {
        return 1.0;
    }
    let mut x = seed ^ (idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    let u = (x >> 11) as f64 / (1u64 << 53) as f64;
    1.0 + amp * (2.0 * u - 1.0)
}

/// A stage-1 measurement. `key` is (point, index among the candidates
/// the point keeps): points cover consecutive runs of the enumeration
/// order, so keys order exactly like indices into the materialised
/// (and, with `predictor_prune`, filtered) candidate list.
#[derive(Clone, Copy)]
struct Scored {
    key: (usize, usize),
    gflops: f64,
    params: KernelParams,
}

/// Fastest first, ties by key: the order of a stable sort by GFlop/s.
fn faster(a: &Scored, b: &Scored) -> std::cmp::Ordering {
    b.gflops
        .partial_cmp(&a.gflops)
        .expect("finite gflops")
        .then(a.key.cmp(&b.key))
}

/// Keep the first `k` of `v` by [`faster`], in no particular order.
fn keep_fastest(v: &mut Vec<Scored>, k: usize) {
    if k == 0 {
        v.clear();
    } else if k < v.len() {
        v.select_nth_unstable_by(k - 1, faster);
        v.truncate(k);
    }
}

/// What stage 1 saw below one (work-group shape, tile) point.
#[derive(Default)]
struct Stage1Part {
    seen: usize,
    /// Candidates the feasible set kept (all of them without one).
    kept: usize,
    /// Candidates the feasible set rejected, by [`PruneReason::index`].
    rejected: [u64; PruneReason::ALL.len()],
    /// Kept candidates the timing model could launch.
    launched: usize,
    /// The point's fastest `top_k`, unordered.
    fastest: Vec<Scored>,
}

/// Stage 1 over a space's (work-group shape, tile) points, one pool
/// task per point.
struct Stage1<'a> {
    space: &'a SearchSpace,
    dev: &'a DeviceSpec,
    points: Vec<TilePoint>,
    base: usize,
    opts: &'a SearchOpts,
}

impl Stage1<'_> {
    /// Per point, the candidates `feasible` keeps.
    fn kept_per_point(&self, feasible: Option<&FeasibleSet>) -> Vec<usize> {
        par_task_map(self.points.len(), |t| {
            let mut kept = 0;
            self.space.visit(&self.points[t], self.dev, |p| {
                kept += usize::from(feasible.is_none_or(|f| f.admits(&p)));
            });
            kept
        })
    }

    /// Visit each candidate, drop it if `feasible` rejects it, score the
    /// rest at their stage-1 size and keep each point's fastest `top_k`.
    /// `offsets[t]`, the number of candidates kept before point `t`, is
    /// needed only with noise, which is keyed by a candidate's index in
    /// the kept list.
    fn run(&self, feasible: Option<&FeasibleSet>, offsets: Option<&[usize]>) -> Vec<Stage1Part> {
        let opts = self.opts;
        par_task_map(self.points.len(), |t| {
            let mut part = Stage1Part::default();
            self.space.visit(&self.points[t], self.dev, |p| {
                part.seen += 1;
                if let Some(reason) = feasible.and_then(|f| f.reject(&p)) {
                    part.rejected[reason.index()] += 1;
                    return;
                }
                let key = (t, part.kept);
                part.kept += 1;
                let Some(g) = measure_gflops(&p, self.dev, stage1_n(&p, self.base)) else {
                    return;
                };
                part.launched += 1;
                let idx = offsets.map_or(0, |o| o[t] + key.1);
                part.fastest.push(Scored {
                    key,
                    gflops: g * noise_factor(opts.noise_seed, idx, opts.noise),
                    params: p,
                });
                if part.fastest.len() >= opts.top_k.saturating_mul(2).max(1) {
                    keep_fastest(&mut part.fastest, opts.top_k);
                }
            });
            keep_fastest(&mut part.fastest, opts.top_k);
            part
        })
    }
}

/// Run the full three-stage search.
///
/// Stage 1 never materialises the space: one pool task per
/// (work-group shape, tile) point of [`SearchSpace::tile_points`]
/// visits the candidates below it, drops those the feasible set rejects
/// (with `predictor_prune`), scores the rest and keeps its own fastest
/// `top_k`. The result equals scoring [`SearchSpace::enumerate`]'s list
/// in order and keeping the first `top_k` of a stable sort by GFlop/s.
#[must_use]
pub fn tune(
    dev: &DeviceSpec,
    precision: Precision,
    space: &SearchSpace,
    opts: &SearchOpts,
) -> TuningResult {
    let _run_span = clgemm_trace::span!("tuner.run");
    let reg = Registry::global();
    reg.counter("tuner_runs_total").inc();

    // ---- stage 1: visit and measure everything at its base size -------
    // With `predictor_prune`, the analytical feasible set drops
    // candidates before they are measured.
    let stage1_span = clgemm_trace::span!("tuner.stage1");
    let stage1 = Stage1 {
        space,
        dev,
        points: space.tile_points(dev, precision),
        base: opts.stage1_base.unwrap_or_else(|| stage1_base(dev)),
        opts,
    };
    let mut feasible = opts
        .predictor_prune
        .then(|| FeasibleSet::derive(dev, precision));
    let parts = loop {
        // Noise is keyed by the index in the kept list: a counting pass
        // first gives each point its offset.
        let offsets = (opts.noise != 0.0).then(|| {
            let mut offsets = stage1.kept_per_point(feasible.as_ref());
            let mut sum = 0;
            for o in &mut offsets {
                (*o, sum) = (sum, sum + *o);
            }
            offsets
        });
        let parts = stage1.run(feasible.as_ref(), offsets.as_deref());
        // The built-in profiles never empty the space, but an exotic
        // spec must degrade to the unpruned search, not panic.
        if feasible.is_none() || parts.iter().any(|p| p.kept > 0) {
            break parts;
        }
        feasible = None;
    };
    drop(stage1_span);
    let total = |count: fn(&Stage1Part) -> usize| parts.iter().map(count).sum::<usize>();
    let (n_candidates, kept) = (total(|p| p.seen), total(|p| p.kept));
    let survivors = total(|p| p.launched);
    reg.counter("tuner_candidates_total")
        .add(n_candidates as u64);
    // Pruning counters are created at the point of use — a search whose
    // space never prunes should not register an eternally-zero metric.
    if feasible.is_some() {
        for (i, reason) in PruneReason::ALL.iter().enumerate() {
            let count: u64 = parts.iter().map(|p| p.rejected[i]).sum();
            if count > 0 {
                reg.counter_labeled(
                    "tuner_pruned_total",
                    &[("stage", "1"), ("reason", reason.tag())],
                )
                .add(count);
            }
        }
    }
    let failures = kept - survivors;
    if failures > 0 {
        reg.counter_labeled(
            "tuner_pruned_total",
            &[("stage", "1"), ("reason", "launch")],
        )
        .add(failures as u64);
    }

    // ---- stage 2: sweep the fastest top_k across LCM multiples ---------
    // Each point's fastest `top_k` holds every global top-`top_k` member
    // it owns, so the first `top_k` of their union are the global ones.
    let rank_span = clgemm_trace::span!("tuner.rank");
    let mut ranked: Vec<Scored> = parts.into_iter().flat_map(|p| p.fastest).collect();
    keep_fastest(&mut ranked, opts.top_k);
    ranked.sort_unstable_by(faster);
    drop(rank_span);
    if survivors > ranked.len() {
        reg.counter_labeled("tuner_pruned_total", &[("stage", "2"), ("reason", "rank")])
            .add((survivors - ranked.len()) as u64);
    }
    if let Some(leader) = ranked.first() {
        // Best-so-far after the coarse stage; refined again after stage 3.
        reg.gauge("tuner_best_gflops").set(leader.gflops);
    }

    let stage2_span = clgemm_trace::span!("tuner.stage2", ranked.len() as u64);
    let sweeps: Vec<(KernelParams, Vec<(usize, f64)>)> =
        clgemm_shim::par::par_map(&ranked, |_, entry: &Scored| {
            let p = &entry.params;
            let lcm = p.lcm_block().max(1);
            let n_points = (opts.max_n / lcm).max(1);
            let step = (n_points / opts.max_sweep_points).max(1);
            let mut sweep = Vec::new();
            let mut mult = 1;
            while mult * lcm <= opts.max_n {
                let n = mult * lcm;
                if let Some(g) = measure_gflops(p, dev, n) {
                    sweep.push((n, g));
                }
                mult += step;
            }
            (*p, sweep)
        });
    drop(stage2_span);

    // ---- stage 3: pick the best kernel ----------------------------------
    let stage3_span = clgemm_trace::span!("tuner.stage3");
    let mut top: Vec<Measurement> = sweeps
        .iter()
        .filter_map(|(params, sweep)| {
            let (n, g) = sweep
                .iter()
                .copied()
                .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))?;
            Some(Measurement {
                params: *params,
                n,
                gflops: g,
            })
        })
        .collect();
    top.sort_by(|a, b| b.gflops.partial_cmp(&a.gflops).expect("finite"));
    assert!(
        !top.is_empty(),
        "search space produced no launchable kernels"
    );

    let best = top[0].clone();
    let sweep = sweeps
        .iter()
        .find(|(params, _)| *params == best.params)
        .map(|(_, s)| s.clone())
        .unwrap_or_default();
    drop(stage3_span);
    reg.gauge("tuner_best_gflops").set(best.gflops);
    clgemm_trace::event!("tuner.best", best.gflops as u64);

    let verified = if opts.verify_winner {
        let _verify_span = clgemm_trace::span!("tuner.verify");
        let ok = verify_kernel(&best.params).is_ok();
        if ok {
            reg.counter("tuner_verified_total").inc();
        }
        ok
    } else {
        false
    };
    let dp = precision == Precision::F64;

    TuningResult {
        device: dev.code_name.clone(),
        precision,
        efficiency: best.gflops / dev.peak_gflops(dp),
        best,
        top,
        sweep,
        candidates: n_candidates,
        failures,
        pruned: n_candidates - kept,
        verified,
    }
}

/// Functional verification at the smallest representative size: generate
/// the kernel, compile it with `clgemm-clc`, execute it in the VM on a
/// deterministic problem and compare bit-for-bit against the native
/// executor (plus a tolerance check against packed-operand semantics).
pub fn verify_kernel(p: &KernelParams) -> Result<(), String> {
    let (m, n) = (p.mwg, p.nwg);
    let k = p.k_multiple().max(2 * p.kwg.min(p.k_multiple()));
    let gen = generate(p).map_err(|e| e.to_string())?;
    let prog = Program::compile(&gen.source).map_err(|e| format!("{e}\n{}", gen.source))?;
    let kernel = prog.kernel(KERNEL_NAME).ok_or("kernel missing")?;

    match p.precision {
        Precision::F64 => verify_typed::<f64>(p, &gen, &prog, kernel.name(), m, n, k),
        Precision::F32 => verify_typed::<f32>(p, &gen, &prog, kernel.name(), m, n, k),
    }
}

fn verify_typed<T: clgemm_blas::Scalar + VmBuf>(
    p: &KernelParams,
    gen: &crate::codegen::GeneratedKernel,
    prog: &Program,
    kname: &str,
    m: usize,
    n: usize,
    k: usize,
) -> Result<(), String> {
    use clgemm_blas::layout::PackedDims;

    let a_dims = PackedDims::new(k, m, p.mwg, p.kwg).map_err(|e| e.to_string())?;
    let b_dims = PackedDims::new(k, n, p.nwg, p.kwg).map_err(|e| e.to_string())?;
    let mut a = vec![T::ZERO; a_dims.len()];
    let mut b = vec![T::ZERO; b_dims.len()];
    for (i, v) in a.iter_mut().enumerate() {
        *v = T::from_f64(((i * 37 + 11) % 23) as f64 / 23.0 - 0.5);
    }
    for (i, v) in b.iter_mut().enumerate() {
        *v = T::from_f64(((i * 53 + 7) % 29) as f64 / 29.0 - 0.5);
    }
    let c0: Vec<T> = (0..m * n)
        .map(|i| T::from_f64(((i * 13 + 5) % 17) as f64 / 17.0 - 0.5))
        .collect();
    let alpha = T::from_f64(0.75);
    let beta = T::from_f64(-0.5);

    // Native oracle.
    let mut c_native = c0.clone();
    run_native(
        m,
        n,
        k,
        alpha,
        &a,
        a_dims,
        p.layout_a,
        &b,
        b_dims,
        p.layout_b,
        beta,
        &mut c_native,
    );

    // VM execution of the generated source.
    let mut bufs = vec![T::to_buf(a), T::to_buf(b), T::to_buf(c0)];
    let args = [
        Arg::Buf(0),
        Arg::Buf(1),
        Arg::Buf(2),
        Arg::I32(m as i32),
        Arg::I32(n as i32),
        Arg::I32(k as i32),
        T::scalar_arg(alpha),
        T::scalar_arg(beta),
    ];
    let kernel = prog.kernel(kname).ok_or("kernel missing")?;
    kernel
        .launch(gen.ndrange(m, n), &args, &mut bufs, &ExecOptions::default())
        .map_err(|e| format!("VM execution failed: {e}"))?;
    let c_vm = T::from_buf(&bufs[2]).ok_or("C buffer lost precision")?;

    for i in 0..m * n {
        if c_vm[i].to_f64().to_bits() != c_native[i].to_f64().to_bits() {
            return Err(format!(
                "bit mismatch at {i}: VM {} vs native {} ({})",
                c_vm[i],
                c_native[i],
                p.describe()
            ));
        }
    }
    Ok(())
}

/// Glue between `Scalar` and the VM's buffer/argument types.
pub trait VmBuf: Sized {
    fn to_buf(v: Vec<Self>) -> BufData;
    fn from_buf(b: &BufData) -> Option<Vec<Self>>;
    fn scalar_arg(v: Self) -> Arg;
}

impl VmBuf for f64 {
    fn to_buf(v: Vec<Self>) -> BufData {
        BufData::F64(v)
    }
    fn from_buf(b: &BufData) -> Option<Vec<Self>> {
        match b {
            BufData::F64(v) => Some(v.clone()),
            _ => None,
        }
    }
    fn scalar_arg(v: Self) -> Arg {
        Arg::F64(v)
    }
}

impl VmBuf for f32 {
    fn to_buf(v: Vec<Self>) -> BufData {
        BufData::F32(v)
    }
    fn from_buf(b: &BufData) -> Option<Vec<Self>> {
        match b {
            BufData::F32(v) => Some(v.clone()),
            _ => None,
        }
    }
    fn scalar_arg(v: Self) -> Arg {
        Arg::F32(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{small_test_params, tahiti_dgemm_best, Algorithm};
    use clgemm_device::DeviceId;

    #[test]
    fn verify_paper_tahiti_kernel_end_to_end() {
        verify_kernel(&tahiti_dgemm_best()).unwrap();
    }

    #[test]
    fn verify_all_algorithms_end_to_end() {
        for alg in Algorithm::ALL {
            let mut p = small_test_params(Precision::F32);
            p.algorithm = alg;
            verify_kernel(&p).unwrap_or_else(|e| panic!("{alg}: {e}"));
        }
    }

    #[test]
    fn smoke_search_finds_a_verified_kernel() {
        let dev = DeviceId::Tahiti.spec();
        let space = SearchSpace::smoke(&dev);
        let opts = SearchOpts {
            top_k: 10,
            max_sweep_points: 8,
            ..Default::default()
        };
        let res = tune(&dev, Precision::F64, &space, &opts);
        assert!(
            res.candidates > 50,
            "smoke space still has candidates: {}",
            res.candidates
        );
        assert!(
            res.best.gflops > 100.0,
            "Tahiti DGEMM should exceed 100 GFlop/s, got {}",
            res.best.gflops
        );
        assert!(res.efficiency > 0.2 && res.efficiency <= 1.2);
        assert!(res.verified, "winner must pass functional verification");
        assert!(!res.sweep.is_empty());
        assert!(res.top.len() <= 10);
        // Ranked order.
        for w in res.top.windows(2) {
            assert!(w[0].gflops >= w[1].gflops);
        }
    }

    #[test]
    fn stage1_size_follows_paper_rule() {
        let p = tahiti_dgemm_best(); // LCM 96
        assert_eq!(stage1_n(&p, 4096), (4096 / 96) * 96);
        assert_eq!(stage1_n(&p, 1536), 1536);
    }

    #[test]
    fn noise_does_not_change_winner_much() {
        let dev = DeviceId::Tahiti.spec();
        let space = SearchSpace::smoke(&dev);
        let quiet = tune(
            &dev,
            Precision::F64,
            &space,
            &SearchOpts {
                top_k: 10,
                max_sweep_points: 4,
                verify_winner: false,
                ..Default::default()
            },
        );
        let noisy = tune(
            &dev,
            Precision::F64,
            &space,
            &SearchOpts {
                top_k: 10,
                max_sweep_points: 4,
                verify_winner: false,
                noise: 0.03,
                noise_seed: 42,
                ..Default::default()
            },
        );
        // 3 % measurement noise may permute near-ties, but the winner's
        // performance must stay within a few percent of the quiet run.
        let rel = (noisy.best.gflops - quiet.best.gflops).abs() / quiet.best.gflops;
        assert!(rel < 0.10, "noise perturbed the winner by {rel:.3}");
    }

    #[test]
    fn predictor_prune_shrinks_stage1_and_preserves_winner() {
        let dev = DeviceId::Tahiti.spec();
        let space = SearchSpace::smoke(&dev);
        let base = SearchOpts {
            top_k: 10,
            max_sweep_points: 4,
            verify_winner: false,
            ..Default::default()
        };
        let full = tune(&dev, Precision::F64, &space, &base);
        let pruned = tune(
            &dev,
            Precision::F64,
            &space,
            &SearchOpts {
                predictor_prune: true,
                ..base
            },
        );
        assert!(pruned.pruned > 0, "smoke space should prune something");
        assert_eq!(pruned.candidates, full.candidates, "full count reported");
        // The feasible set must not cost the searched winner (the ≥10×
        // ratio itself is gated on the full space in benches/predict.rs).
        assert!(
            pruned.best.gflops >= 0.98 * full.best.gflops,
            "pruning lost the winner: {} vs {}",
            pruned.best.gflops,
            full.best.gflops
        );
    }

    #[test]
    fn measure_rejects_unlaunchable_kernels() {
        let dev = DeviceId::Cayman.spec(); // 32 KiB local memory
        let mut p = small_test_params(Precision::F64);
        p.mwg = 64;
        p.nwg = 64;
        p.kwg = 64;
        p.mdimc = 16;
        p.ndimc = 16;
        p.mdima = 16;
        p.ndimb = 16;
        // 2 * 64*64*8 = 64 KiB of LDS > 32 KiB.
        assert!(p.validate().is_ok());
        assert!(measure_gflops(&p, &dev, 1024).is_none());
    }

    #[test]
    fn json_round_trip_of_results() {
        let dev = DeviceId::Kepler.spec();
        let space = SearchSpace::smoke(&dev);
        let res = tune(
            &dev,
            Precision::F32,
            &space,
            &SearchOpts {
                top_k: 5,
                max_sweep_points: 4,
                verify_winner: false,
                ..Default::default()
            },
        );
        let text = res.to_json().to_string_pretty();
        let back = TuningResult::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.best.params, res.best.params);
        assert_eq!(back.device, res.device);
        assert_eq!(back.sweep, res.sweep);
        assert_eq!(back.top.len(), res.top.len());
    }
}
