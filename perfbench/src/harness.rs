//! Measurement plumbing shared by every workload: the busy clock, the
//! per-phase record a workload fills in, percentiles, and the process
//! peak resident set.

use crate::layers::{RoutineCall, ServeTally};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Wall time spent inside calls into the program, and nothing else.
///
/// Input generation and output checks run between timed calls, so a
/// workload's "timed wall seconds" and every per-op latency are read
/// from this clock rather than from the process clock: untimed work can
/// never leak into a metric.
#[derive(Debug, Default)]
pub struct Clock {
    busy: Duration,
}

impl Clock {
    /// Run `f` and add its wall time to the clock.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.busy += t0.elapsed();
        r
    }

    /// Busy seconds so far.
    pub fn now(&self) -> f64 {
        self.busy.as_secs_f64()
    }
}

/// One timed unit of work: an op, or a group of ops timed together.
/// Units in the same slot do the same work in every round.
#[derive(Debug, Clone, Copy)]
pub struct Unit {
    pub slot: usize,
    pub secs: f64,
}

/// Busy seconds at the start of a unit; see [`Phase::end_unit`].
#[derive(Debug, Clone, Copy)]
pub struct Mark(f64);

/// Everything one timed phase of a workload produced.
#[derive(Debug, Default)]
pub struct Phase {
    pub clock: Clock,
    pub units: Vec<Unit>,
    /// One latency per completed op, in milliseconds of busy time, with
    /// the group it was answered in (see [`tail`]).
    pub latencies: Vec<(f64, u64)>,
    groups: u64,
    /// Completed ops (routine calls, answered requests or batched calls,
    /// tuning jobs, kernel jobs).
    pub ops: u64,
    pub attempted: u64,
    pub failed: u64,
    /// `2·m·n·k` of every completed GEMM.
    pub flops: f64,
    /// Model GFlop/s of the kernel each op ran on its simulated device.
    pub model_gflops: Vec<f64>,
    /// Counts that must repeat exactly for a seed, in print order.
    pub identity: Vec<(String, String)>,
    /// Failed output checks, one line each.
    pub check_failures: Vec<String>,
    /// Extra lines for the human-readable report.
    pub notes: Vec<String>,

    // Inputs of the per-layer metrics beyond the spans themselves.
    /// Routine calls by the (name, tag) of the span around their
    /// `routine.gemm`.
    pub routine_calls: HashMap<(&'static str, u64), RoutineCall>,
    /// Modelled device seconds of each completed request, by id.
    pub request_model_s: HashMap<u64, f64>,
    pub tile_substitutions: u64,
    pub batched_calls: u64,
    pub batched_entries: u64,
    pub batched_direct: u64,
    pub serve: Option<ServeTally>,
    pub tuner_candidates: u64,
    /// Candidates measured in stage 1 (enumerated minus pruned).
    pub tuner_measured: u64,
    pub tuner_failures: u64,
}

impl Phase {
    pub fn id(&mut self, name: &str, value: impl std::fmt::Display) {
        self.identity.push((name.to_string(), value.to_string()));
    }

    /// A new answer group: ops answered together (one drain) share one.
    pub fn group(&mut self) -> u64 {
        self.groups += 1;
        self.groups
    }

    /// Record the latency of an op answered on its own.
    pub fn latency(&mut self, ms: f64) {
        let g = self.group();
        self.latencies.push((ms, g));
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    pub fn mark(&self) -> Mark {
        Mark(self.clock.now())
    }

    /// Close the unit that started at `m`.
    pub fn end_unit(&mut self, slot: usize, m: Mark) {
        self.units.push(Unit {
            slot,
            secs: self.clock.now() - m.0,
        });
    }

    /// Timed seconds with every unit at the median time of its slot.
    ///
    /// The host this runs on stalls for stretches of a second or so (a
    /// vCPU taken away halves a fork/join op's speed), which moves the
    /// plain sum by 10–25% between identical runs. Each slot recurs once
    /// per round doing the same work, so its median over the rounds is
    /// the time that work takes when the host is not stalled.
    pub fn steady_secs(&self) -> f64 {
        let mut by_slot: HashMap<usize, Vec<f64>> = HashMap::new();
        for u in &self.units {
            by_slot.entry(u.slot).or_default().push(u.secs);
        }
        let medians: HashMap<usize, f64> = by_slot.iter().map(|(&k, v)| (k, median(v))).collect();
        self.units.iter().map(|u| medians[&u.slot]).sum()
    }

    /// One line per slot: its median unit time and the range around it.
    pub fn slot_lines(&self) -> Vec<String> {
        let mut by_slot: std::collections::BTreeMap<usize, Vec<f64>> = Default::default();
        for u in &self.units {
            by_slot.entry(u.slot).or_default().push(u.secs * 1e3);
        }
        by_slot
            .into_iter()
            .map(|(slot, mut v)| {
                v.sort_by(f64::total_cmp);
                format!(
                    "slot {slot}: {} units, median {:.2} ms, min {:.2}, max {:.2}",
                    v.len(),
                    percentile(&v, 0.5),
                    v[0],
                    v[v.len() - 1]
                )
            })
            .collect()
    }

    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.steady_secs()
    }
}

/// Linear-interpolated percentile of an ascending slice (`q` in 0..=1).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// Independent samples that must lie beyond the reported tail.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond
/// it. Ops answered together (one drain answers a whole window of
/// requests) have one latency between them, so they count as one
/// sample: the tail is the slowest op of the 11th-slowest group, which
/// for ops answered one at a time is the `(n − 10)`-th smallest.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub value: f64,
    /// The percentile of ops at or below the tail, in percent.
    pub pct: f64,
    pub samples: usize,
    pub groups: usize,
}

pub fn tail(samples: &[(f64, u64)]) -> Tail {
    let mut worst: HashMap<u64, f64> = HashMap::new();
    for &(ms, g) in samples {
        let w = worst.entry(g).or_insert(ms);
        *w = w.max(ms);
    }
    let mut groups: Vec<f64> = worst.into_values().collect();
    groups.sort_by(|a, b| b.total_cmp(a));
    assert!(
        groups.len() > TAIL_BEYOND,
        "a tail needs more than {TAIL_BEYOND} groups, got {}",
        groups.len()
    );
    let value = groups[TAIL_BEYOND];
    let at_or_below = samples.iter().filter(|(ms, _)| *ms <= value).count();
    Tail {
        value,
        pct: 100.0 * at_or_below as f64 / samples.len() as f64,
        samples: samples.len(),
        groups: groups.len(),
    }
}

pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
