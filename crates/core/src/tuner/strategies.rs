//! Alternative search strategies.
//!
//! The paper's engine measures *every* heuristically enumerated candidate
//! (cheap here, five-plus hours on real hardware). On a real device a
//! sample-efficient strategy matters, so this module adds three classic
//! auto-tuning searches over the same space and the `strategies`
//! experiment compares their quality-vs-evaluations trade-off:
//!
//! * [`Strategy::Random`] — uniform sampling;
//! * [`Strategy::CoordinateDescent`] — greedy one-knob-at-a-time
//!   refinement with restarts (the ATLAS approach);
//! * [`Strategy::Anneal`] — simulated annealing over one-knob mutations.
//!
//! All strategies "measure" through the same deterministic model as the
//! exhaustive search, so results are exactly comparable.

use crate::params::KernelParams;
use crate::tuner::search::{measure_gflops, stage1_base, stage1_n, Measurement};
use crate::tuner::space::SearchSpace;
use clgemm_blas::scalar::Precision;
use clgemm_device::DeviceSpec;
use clgemm_shim::Rng;

/// A search strategy over a [`SearchSpace`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Strategy {
    /// Measure every candidate (the paper's approach).
    Exhaustive,
    /// Measure `samples` uniformly random candidates.
    Random { samples: usize, seed: u64 },
    /// Greedy per-knob refinement from `restarts` random starting points.
    CoordinateDescent { restarts: usize, seed: u64 },
    /// Simulated annealing for `iters` steps.
    Anneal { iters: usize, seed: u64 },
}

/// Outcome of a strategy run.
#[derive(Debug, Clone)]
pub struct StrategyResult {
    pub best: Measurement,
    /// Number of timing-model evaluations spent.
    pub evaluations: usize,
    /// Size of the underlying candidate space.
    pub space_size: usize,
}

struct Evaluator<'a> {
    dev: &'a DeviceSpec,
    count: usize,
}

impl<'a> Evaluator<'a> {
    fn eval(&mut self, p: &KernelParams) -> f64 {
        self.count += 1;
        measure_gflops(p, self.dev, stage1_n(p, stage1_base(self.dev))).unwrap_or(0.0)
    }
}

/// Run a strategy.
///
/// # Panics
/// Panics if the space enumerates to nothing on the device.
#[must_use]
pub fn tune_with_strategy(
    dev: &DeviceSpec,
    precision: Precision,
    space: &SearchSpace,
    strategy: Strategy,
) -> StrategyResult {
    let candidates = space.enumerate(dev, precision);
    assert!(!candidates.is_empty(), "empty search space");
    let space_size = candidates.len();
    let mut ev = Evaluator { dev, count: 0 };

    let (best_params, best_g) = match strategy {
        Strategy::Exhaustive => {
            let mut best = (candidates[0], f64::MIN);
            for p in &candidates {
                let g = ev.eval(p);
                if g > best.1 {
                    best = (*p, g);
                }
            }
            best
        }
        Strategy::Random { samples, seed } => {
            let mut rng = Rng::new(seed);
            let mut best = (candidates[0], f64::MIN);
            for _ in 0..samples.max(1) {
                let p = rng.choose(&candidates).expect("non-empty");
                let g = ev.eval(p);
                if g > best.1 {
                    best = (*p, g);
                }
            }
            best
        }
        Strategy::CoordinateDescent { restarts, seed } => {
            let mut rng = Rng::new(seed);
            let mut best = (candidates[0], f64::MIN);
            for _ in 0..restarts.max(1) {
                let start = *rng.choose(&candidates).expect("non-empty");
                let (p, g) = descend(start, space, dev, precision, &mut ev);
                if g > best.1 {
                    best = (p, g);
                }
            }
            best
        }
        Strategy::Anneal { iters, seed } => {
            let mut rng = Rng::new(seed);
            let mut cur = *rng.choose(&candidates).expect("non-empty");
            let mut cur_g = ev.eval(&cur);
            let mut best = (cur, cur_g);
            let t0 = (best.1.max(1.0)) * 0.2;
            for step in 0..iters.max(1) {
                let temp = t0 * (1.0 - step as f64 / iters.max(1) as f64) + 1e-9;
                let Some(next) = mutate(&cur, space, dev, precision, &mut rng) else {
                    continue;
                };
                let next_g = ev.eval(&next);
                let accept = next_g >= cur_g || rng.f64() < ((next_g - cur_g) / temp).exp();
                if accept {
                    cur = next;
                    cur_g = next_g;
                    if cur_g > best.1 {
                        best = (cur, cur_g);
                    }
                }
            }
            best
        }
    };

    StrategyResult {
        best: Measurement {
            params: best_params,
            n: stage1_n(&best_params, stage1_base(dev)),
            gflops: best_g,
        },
        evaluations: ev.count,
        space_size,
    }
}

/// All single-knob variants of `p` present in the space lists.
fn neighbors(p: &KernelParams, space: &SearchSpace, precision: Precision) -> Vec<KernelParams> {
    let mut out = Vec::new();
    let mut push = |q: KernelParams| {
        if q != *p && q.validate().is_ok() {
            out.push(q);
        }
    };
    for &(mdimc, ndimc) in &space.wg_shapes {
        let mut q = *p;
        // Keep the work-item tile, move the group shape.
        q.mwg = mdimc * p.mwi();
        q.nwg = ndimc * p.nwi();
        q.mdimc = mdimc;
        q.ndimc = ndimc;
        q.mdima = mdimc;
        q.ndimb = ndimc;
        push(q);
    }
    for &(mwi, nwi) in &space.wi_tiles {
        let mut q = *p;
        q.mwg = p.mdimc * mwi;
        q.nwg = p.ndimc * nwi;
        push(q);
    }
    for &kwg in &space.kwg {
        let mut q = *p;
        q.kwg = kwg;
        push(q);
    }
    for &kwi in &space.kwi {
        let mut q = *p;
        q.kwi = kwi;
        push(q);
    }
    for &vw in &space.vw {
        let mut q = *p;
        q.vw = vw;
        push(q);
    }
    for &(sm, sn) in &space.strides {
        let mut q = *p;
        q.stride_m = sm;
        q.stride_n = sn;
        push(q);
    }
    for &(la, lb) in &space.locals {
        let mut q = *p;
        q.local_a = la;
        q.local_b = lb;
        push(q);
    }
    for &(la, lb) in &space.layouts {
        let mut q = *p;
        q.layout_a = la;
        q.layout_b = lb;
        push(q);
    }
    for &alg in &space.algorithms {
        let mut q = *p;
        q.algorithm = alg;
        if alg != crate::params::Algorithm::Ba {
            q.local_a = true;
            q.local_b = true;
        }
        push(q);
    }
    let _ = precision;
    out
}

/// Greedy descent: accept the best neighbour until none improves.
fn descend(
    start: KernelParams,
    space: &SearchSpace,
    _dev: &DeviceSpec,
    precision: Precision,
    ev: &mut Evaluator<'_>,
) -> (KernelParams, f64) {
    let mut cur = start;
    let mut cur_g = ev.eval(&cur);
    loop {
        let mut improved = false;
        for q in neighbors(&cur, space, precision) {
            let g = ev.eval(&q);
            if g > cur_g {
                cur = q;
                cur_g = g;
                improved = true;
            }
        }
        if !improved {
            return (cur, cur_g);
        }
    }
}

/// One random single-knob mutation.
fn mutate(
    p: &KernelParams,
    space: &SearchSpace,
    _dev: &DeviceSpec,
    precision: Precision,
    rng: &mut Rng,
) -> Option<KernelParams> {
    let nbs = neighbors(p, space, precision);
    rng.choose(&nbs).copied()
}

#[cfg(test)]
mod tests {
    use super::*;
    use clgemm_device::DeviceId;

    fn setup() -> (DeviceSpec, SearchSpace) {
        let dev = DeviceId::Tahiti.spec();
        let space = SearchSpace::smoke(&dev);
        (dev, space)
    }

    #[test]
    fn exhaustive_matches_candidate_count() {
        let (dev, space) = setup();
        let res = tune_with_strategy(&dev, Precision::F64, &space, Strategy::Exhaustive);
        assert_eq!(res.evaluations, res.space_size);
        assert!(res.best.gflops > 0.0);
    }

    #[test]
    fn random_uses_exactly_its_budget() {
        let (dev, space) = setup();
        let res = tune_with_strategy(
            &dev,
            Precision::F64,
            &space,
            Strategy::Random {
                samples: 40,
                seed: 7,
            },
        );
        assert_eq!(res.evaluations, 40);
        assert!(res.best.gflops > 0.0);
    }

    #[test]
    fn coordinate_descent_beats_random_at_similar_budget() {
        let (dev, space) = setup();
        let cd = tune_with_strategy(
            &dev,
            Precision::F64,
            &space,
            Strategy::CoordinateDescent {
                restarts: 2,
                seed: 3,
            },
        );
        let rnd = tune_with_strategy(
            &dev,
            Precision::F64,
            &space,
            Strategy::Random {
                samples: cd.evaluations,
                seed: 3,
            },
        );
        assert!(
            cd.best.gflops >= 0.95 * rnd.best.gflops,
            "CD {} vs random {} at {} evals",
            cd.best.gflops,
            rnd.best.gflops,
            cd.evaluations
        );
    }

    #[test]
    fn heuristic_strategies_approach_the_exhaustive_optimum() {
        let (dev, space) = setup();
        let full = tune_with_strategy(&dev, Precision::F64, &space, Strategy::Exhaustive);
        let cd = tune_with_strategy(
            &dev,
            Precision::F64,
            &space,
            Strategy::CoordinateDescent {
                restarts: 3,
                seed: 11,
            },
        );
        assert!(
            cd.best.gflops >= 0.9 * full.best.gflops,
            "CD reached {} of exhaustive {}",
            cd.best.gflops,
            full.best.gflops
        );
        assert!(
            cd.evaluations < full.evaluations,
            "CD must be sample-efficient"
        );
        let sa = tune_with_strategy(
            &dev,
            Precision::F64,
            &space,
            Strategy::Anneal {
                iters: 150,
                seed: 11,
            },
        );
        assert!(
            sa.best.gflops >= 0.8 * full.best.gflops,
            "SA reached {} of exhaustive {}",
            sa.best.gflops,
            full.best.gflops
        );
    }

    #[test]
    fn strategies_are_deterministic_given_a_seed() {
        let (dev, space) = setup();
        let a = tune_with_strategy(
            &dev,
            Precision::F32,
            &space,
            Strategy::Anneal { iters: 50, seed: 5 },
        );
        let b = tune_with_strategy(
            &dev,
            Precision::F32,
            &space,
            Strategy::Anneal { iters: 50, seed: 5 },
        );
        assert_eq!(a.best.params, b.best.params);
        assert_eq!(a.evaluations, b.evaluations);
    }

    #[test]
    fn neighbors_are_valid_and_distinct() {
        let (dev, space) = setup();
        let cands = space.enumerate(&dev, Precision::F64);
        let nbs = neighbors(&cands[0], &space, Precision::F64);
        assert!(!nbs.is_empty());
        for n in &nbs {
            n.validate().unwrap();
            assert_ne!(n, &cands[0]);
        }
    }
}
