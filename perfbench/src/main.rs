//! The repository benchmark: three seeded workloads driven through the
//! public APIs of `clgemm`, `clgemm-serve`, `clgemm-sim` and
//! `clgemm-clc`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-mixed --seed 1 --seconds 10 --trace 0
//! ```
//!
//! With `--trace 0` the run reports the end-to-end metrics, measured
//! with tracing off. With `--trace 1` it probes the host's FMA
//! ceilings, runs the workload once untraced and once traced, and
//! reports the per-layer split of the traced run. Every run checks the
//! program's outputs outside the timed phase, prints the counts that
//! must repeat exactly for a seed, and ends with one JSON line.

mod harness;
mod host;
mod inputs;
mod layers;
mod opencl_run;
mod serve_mixed;
mod spans;
mod tune_verify;

use clgemm_blas::scalar::Precision;
use clgemm_shim::Json;
use harness::{geomean, median, rss_peak_mb, tail, Phase};
use layers::{Ceilings, Metric, VmCounters};
use spans::Tracer;
use std::collections::BTreeMap;
use std::time::Instant;

/// One workload: a set-up that ends with a full untimed op, and a timed
/// phase whose work depends only on the seed and the round count.
pub trait Workload {
    type State;
    /// Lines saying what the workload runs.
    fn describe(&self) -> Vec<String>;
    /// Rounds for a run of about `seconds` on the reference host. The
    /// work is fixed by this count, never by the clock, so it repeats
    /// exactly for a seed.
    fn rounds(&self, seconds: u64) -> usize;
    /// Failed output checks of the set-up's own ops go to `checks`.
    fn setup(&self, seed: u64, checks: &mut Vec<String>) -> Self::State;
    fn run(&self, st: &mut Self::State, seed: u64, rounds: usize, tracer: &mut Tracer) -> Phase;
}

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Variables that change what the program does; a run refuses to start
/// with any of them set, so every run measures the default
/// configuration with an in-memory tuning database.
const FORBIDDEN_ENV: [&str; 5] = [
    "CLGEMM_TUNING_DB",
    "CLGEMM_SIMD",
    "CLGEMM_CLC_ENGINE",
    "CLGEMM_PREDICT",
    "CLGEMM_TRACE",
];

const WORKLOADS: [&str; 3] = ["serve-mixed", "tune-verify", "opencl-run"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <u64> --seconds <1..=600> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> String {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .unwrap_or_else(|| usage(&format!("missing {flag}")));
        argv.get(i + 1)
            .cloned()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
    };
    let workload = get("--workload");
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload:?}"));
    }
    let seed = get("--seed")
        .parse()
        .unwrap_or_else(|_| usage("--seed must be an unsigned integer"));
    let seconds = get("--seconds")
        .parse()
        .ok()
        .filter(|s| (1..=600).contains(s))
        .unwrap_or_else(|| usage("--seconds must be 1..=600"));
    let trace = match get("--trace").as_str() {
        "0" => false,
        "1" => true,
        _ => usage("--trace must be 0 or 1"),
    };
    Args {
        workload,
        seed,
        seconds,
        trace,
    }
}

fn main() {
    let args = parse_args();
    let set: Vec<&str> = FORBIDDEN_ENV
        .iter()
        .copied()
        .filter(|v| std::env::var_os(v).is_some())
        .collect();
    if !set.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set; unset it to measure the default configuration",
            set.join(", ")
        );
        std::process::exit(2);
    }
    let correct = match args.workload.as_str() {
        "serve-mixed" => bench(&serve_mixed::ServeMixed, &args),
        "tune-verify" => bench(&tune_verify::TuneVerify, &args),
        _ => bench(&opencl_run::OpenclRun::new(), &args),
    };
    std::process::exit(if correct { 0 } else { 1 });
}

fn metric(name: &str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        value,
    }
}

/// Run one workload, print the report and the JSON line; returns
/// whether every check passed.
fn bench<W: Workload>(w: &W, args: &Args) -> bool {
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("host: {}", host::fingerprint());
    for line in w.describe() {
        println!("{line}");
    }
    // A traced run measures the same work twice (untraced, then
    // traced), each for half its seconds.
    let rounds = if args.trace {
        w.rounds(args.seconds.div_ceil(2))
    } else {
        w.rounds(args.seconds)
    };

    let mut problems = Vec::new();
    let (phase, metrics) = if args.trace {
        traced(w, args, rounds, &mut problems)
    } else {
        untraced(w, args, rounds, &mut problems)
    };
    problems.extend(phase.check_failures.iter().cloned());
    problems.extend(identity_check(&phase, args, rounds));
    for note in &phase.notes {
        println!("{note}");
    }
    for p in &problems {
        println!("CHECK FAILED: {p}");
    }

    let correct = problems.is_empty() && metrics.iter().all(|m| m.value.is_finite());
    let json = Json::obj(vec![
        ("correct", Json::from(correct)),
        ("attempted", Json::from(phase.attempted as usize)),
        ("failed", Json::from(phase.failed as usize)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .iter()
                    .map(|m| {
                        let v = if m.value.is_finite() { m.value } else { 0.0 };
                        (
                            m.name.clone(),
                            Json::obj(vec![("value", Json::from(v)), ("unit", Json::from(m.unit))]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", json.to_string_compact());
    correct
}

/// End-to-end metrics, tracing off.
fn untraced<W: Workload>(
    w: &W,
    args: &Args,
    rounds: usize,
    problems: &mut Vec<String>,
) -> (Phase, Vec<Metric>) {
    let mut setups = Vec::new();
    let mut state = None;
    for _ in 0..SETUP_REPS {
        drop(state.take());
        let t0 = Instant::now();
        state = Some(w.setup(args.seed, problems));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut st = state.expect("at least one set-up");
    let phase = w.run(&mut st, args.seed, rounds, &mut Tracer::off());
    drop(st);

    let t = tail(&phase.latencies);
    let lat: Vec<f64> = phase.latencies.iter().map(|l| l.0).collect();
    println!(
        "ops {} attempted {} failed {} in {:.3} timed s over {rounds} rounds",
        phase.ops,
        phase.attempted,
        phase.failed,
        phase.clock.now()
    );
    println!(
        "latency_ms_tail is p{:.2} of {} samples answered in {} groups ({} groups beyond it)",
        t.pct,
        t.samples,
        t.groups,
        harness::TAIL_BEYOND
    );
    println!("setup_s is the median of {SETUP_REPS} set-ups: {setups:.3?}");
    for l in phase.slot_lines() {
        println!("{l}");
    }
    let secs = phase.steady_secs();
    println!(
        "ops_per_s and gflops divide by {secs:.3} s: the timed seconds with every unit at its slot's median"
    );
    let metrics = vec![
        metric("ops_per_s", "1/s", phase.ops_per_s()),
        metric("gflops", "GFlop/s", phase.flops / secs * 1e-9),
        metric("latency_ms_p50", "ms", median(&lat)),
        metric("latency_ms_tail", "ms", t.value),
        metric("setup_s", "s", median(&setups)),
        metric("rss_peak_mb", "MiB", rss_peak_mb()),
        metric(
            "tuned_model_gflops",
            "GFlop/s",
            geomean(&phase.model_gflops),
        ),
    ];
    for m in &metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    (phase, metrics)
}

fn vm_counters() -> VmCounters {
    let snap = clgemm_trace::Registry::global().snapshot();
    let mut c = VmCounters::default();
    for (name, v) in &snap.entries {
        let clgemm_trace::MetricValue::Counter(v) = v else {
            continue;
        };
        if let Some(labels) = name.strip_prefix("vm_launches_total{") {
            c.launches += v;
            if !labels.contains("\"compiled\"") {
                c.fallbacks += v;
            }
        } else if name == "vm_instrs_total" {
            c.instrs += v;
        }
    }
    c
}

/// Per-layer metrics: the same work untraced and traced, from fresh
/// set-ups, after probing the host's ceilings.
fn traced<W: Workload>(
    w: &W,
    args: &Args,
    rounds: usize,
    problems: &mut Vec<String>,
) -> (Phase, Vec<Metric>) {
    let threads = host::nproc();
    let ceilings = Ceilings {
        f32_1t: host::fma_peak_gflops(Precision::F32, 1),
        f32_all: host::fma_peak_gflops(Precision::F32, threads),
        f64_1t: host::fma_peak_gflops(Precision::F64, 1),
        f64_all: host::fma_peak_gflops(Precision::F64, threads),
    };
    println!(
        "host FMA peak GFlop/s: f32 {:.1} (1 thread) {:.1} ({threads} threads), f64 {:.1} / {:.1}",
        ceilings.f32_1t, ceilings.f32_all, ceilings.f64_1t, ceilings.f64_all
    );

    let mut st = w.setup(args.seed, problems);
    let plain = w.run(&mut st, args.seed, rounds, &mut Tracer::off());
    drop(st);

    let mut st = w.setup(args.seed, problems);
    let vm0 = vm_counters();
    let mut tracer = Tracer::start();
    let phase = w.run(&mut st, args.seed, rounds, &mut tracer);
    let trace = tracer.finish();
    let vm1 = vm_counters();
    drop(st);

    if identity_lines(&plain, rounds) != identity_lines(&phase, rounds) {
        problems.push("the traced run did different work than the untraced run".into());
    }
    let vm = VmCounters {
        launches: vm1.launches - vm0.launches,
        fallbacks: vm1.fallbacks - vm0.fallbacks,
        instrs: vm1.instrs - vm0.instrs,
    };
    let (metrics, lines) = layers::compute(&trace, &phase, &ceilings, plain.ops_per_s(), vm);
    for l in lines {
        println!("{l}");
    }
    if trace.lost > 0 {
        problems.push(format!(
            "{} span events were overwritten before they were read",
            trace.lost
        ));
    }
    (phase, metrics)
}

/// The counts that must repeat exactly for a seed and round count; a
/// count recorded once per op is printed as a multiset.
fn identity_lines(phase: &Phase, rounds: usize) -> Vec<String> {
    let mut grouped: BTreeMap<&str, BTreeMap<&str, u64>> = BTreeMap::new();
    for (k, v) in &phase.identity {
        *grouped.entry(k).or_default().entry(v).or_default() += 1;
    }
    let mut lines = vec![
        format!("rounds = {rounds}"),
        format!("ops = {}", phase.ops),
        format!("attempted = {}", phase.attempted),
        format!("failed = {}", phase.failed),
        format!("flops = {}", phase.flops),
        format!(
            "routine copy bytes = {}",
            phase
                .routine_calls
                .values()
                .map(|c| {
                    let (a, b, s, m) = c.copy_bytes();
                    a + b + s + m
                })
                .sum::<f64>()
        ),
    ];
    for (k, vs) in grouped {
        let vals: Vec<String> = vs
            .iter()
            .map(|(v, n)| {
                if *n == 1 {
                    (*v).to_string()
                } else {
                    format!("{v} (x{n})")
                }
            })
            .collect();
        lines.push(format!("{k} = {}", vals.join("; ")));
    }
    lines
}

/// Print the work-identity counts and compare them with the first run
/// of this build, seed and round count; returns the mismatches.
fn identity_check(phase: &Phase, args: &Args, rounds: usize) -> Vec<String> {
    let lines = identity_lines(phase, rounds);
    for l in &lines {
        println!("identity {l}");
    }
    let body = lines.join("\n") + "\n";

    // Recorded next to the executable, keyed by its size and mtime, so
    // a rebuilt program starts a fresh record.
    let Ok(exe) = std::env::current_exe() else {
        return Vec::new();
    };
    let stamp = std::fs::metadata(&exe)
        .and_then(|m| Ok((m.len(), m.modified()?)))
        .map(|(len, t)| {
            let ns = t
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.as_nanos());
            format!("{len}-{ns}")
        })
        .unwrap_or_default();
    let dir = exe.with_file_name("perfbench-identity");
    let path = dir.join(format!(
        "{}-{}-{rounds}-{stamp}.txt",
        args.workload, args.seed
    ));
    match std::fs::read_to_string(&path) {
        Ok(prev) if prev != body => {
            let diffs: Vec<String> = body
                .lines()
                .zip(prev.lines())
                .filter(|(a, b)| a != b)
                .map(|(a, b)| {
                    format!("work differs from an earlier run of this seed: now {a:?}, then {b:?}")
                })
                .collect();
            if diffs.is_empty() {
                vec!["work differs from an earlier run of this seed".into()]
            } else {
                diffs
            }
        }
        Ok(_) => Vec::new(),
        Err(_) => {
            let _ = std::fs::create_dir_all(&dir);
            let _ = std::fs::write(&path, body);
            Vec::new()
        }
    }
}
