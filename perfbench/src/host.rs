//! The host a result was measured on: a fingerprint printed with every
//! run, and the FMA ceilings the traced run probes.

use clgemm_blas::scalar::Precision;
use clgemm_shim::simd::SimdLevel;
use std::time::Instant;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or_else(|| "unknown".to_string(), |m| m.trim().to_string())
}

/// Size in bytes and sharing list of the unified cache at `level`, as
/// sysfs lists it for CPU 0.
fn cache(level: u32) -> Option<(usize, String)> {
    let base = "/sys/devices/system/cpu/cpu0/cache";
    (0..8).find_map(|idx| {
        let read = |f: &str| {
            std::fs::read_to_string(format!("{base}/index{idx}/{f}"))
                .map(|s| s.trim().to_string())
                .unwrap_or_default()
        };
        if read("level") != level.to_string() || read("type") != "Unified" {
            return None;
        }
        let size = read("size");
        let kib: usize = size.strip_suffix('K')?.parse().ok()?;
        Some((kib * 1024, read("shared_cpu_list")))
    })
}

fn describe_cache(level: u32) -> String {
    cache(level).map_or_else(
        || "unknown".to_string(),
        |(bytes, cpus)| format!("{} KiB shared by cpus {cpus}", bytes / 1024),
    )
}

/// The commit of the checkout the benchmark runs in, read from `.git`
/// without running git; "unknown" outside a git checkout.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .ok()
            .or_else(|| {
                std::fs::read_to_string(".git/packed-refs")
                    .ok()
                    .and_then(|p| {
                        p.lines()
                            .find(|l| l.ends_with(r))
                            .map(|l| l.split(' ').next().unwrap_or("").to_string())
                    })
            })
            .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".to_string(),
    }
}

pub fn fingerprint() -> String {
    format!(
        "simd={} nproc={} cpu=\"{}\" l2=\"{}\" l3=\"{}\" git={}",
        SimdLevel::detect().tag(),
        nproc(),
        cpu_model(),
        describe_cache(2),
        describe_cache(3),
        git_rev()
    )
}

/// Independent accumulator registers per probe loop: enough to cover
/// the FMA latency on both ports, few enough to stay in registers.
const ACCS: usize = 12;

macro_rules! fma_probe {
    ($name:ident, $feature:literal, $t:ty, $lanes:literal, $set1:ident, $fmadd:ident, $storeu:ident) => {
        /// `iters` rounds of `ACCS` independent vector FMAs; returns the
        /// flops done.
        ///
        /// # Safety
        /// The CPU must support every feature in the function's
        /// `target_feature` list.
        #[target_feature(enable = $feature)]
        pub unsafe fn $name(iters: u64) -> f64 {
            use std::arch::x86_64::*;
            let x = $set1(std::hint::black_box(1.0 + 1e-9));
            let y = $set1(std::hint::black_box(1e-9));
            let mut acc = [$set1(1.0); super::ACCS];
            for _ in 0..iters {
                for a in &mut acc {
                    *a = $fmadd(*a, x, y);
                }
            }
            let mut out = [0.0 as $t; $lanes];
            for a in acc {
                // SAFETY: `out` holds exactly one vector of lanes.
                unsafe { $storeu(out.as_mut_ptr(), a) };
                std::hint::black_box(&out);
            }
            iters as f64 * (super::ACCS * $lanes * 2) as f64
        }
    };
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    fma_probe!(
        f32_avx512,
        "avx512f",
        f32,
        16,
        _mm512_set1_ps,
        _mm512_fmadd_ps,
        _mm512_storeu_ps
    );
    fma_probe!(
        f64_avx512,
        "avx512f",
        f64,
        8,
        _mm512_set1_pd,
        _mm512_fmadd_pd,
        _mm512_storeu_pd
    );
    fma_probe!(
        f32_avx2,
        "avx2,fma",
        f32,
        8,
        _mm256_set1_ps,
        _mm256_fmadd_ps,
        _mm256_storeu_ps
    );
    fma_probe!(
        f64_avx2,
        "avx2,fma",
        f64,
        4,
        _mm256_set1_pd,
        _mm256_fmadd_pd,
        _mm256_storeu_pd
    );
}

/// Scalar fallback for hosts without a vector tier the probe knows:
/// independent `mul_add` chains; returns the flops done.
fn scalar_probe<T: clgemm_blas::Scalar>(iters: u64) -> f64 {
    let x = std::hint::black_box(T::from_f64(1.0 + 1e-9));
    let y = std::hint::black_box(T::from_f64(1e-9));
    let mut acc = [T::ONE; ACCS];
    for _ in 0..iters {
        for a in &mut acc {
            *a = a.mul_add(x, y);
        }
    }
    std::hint::black_box(acc);
    iters as f64 * (ACCS * 2) as f64
}

/// One probe loop on the detected SIMD tier; returns the flops done.
fn probe_once(prec: Precision, iters: u64) -> f64 {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: each vector branch runs only on the tier
        // `SimdLevel::detect` found in hardware (a CLGEMM_SIMD override
        // is refused at start-up), and that tier implies the features
        // the function enables.
        unsafe {
            match (SimdLevel::detect(), prec) {
                (SimdLevel::Avx512, Precision::F32) => return x86::f32_avx512(iters),
                (SimdLevel::Avx512, Precision::F64) => return x86::f64_avx512(iters),
                (SimdLevel::Avx2, Precision::F32) => return x86::f32_avx2(iters),
                (SimdLevel::Avx2, Precision::F64) => return x86::f64_avx2(iters),
                _ => {}
            }
        }
    }
    match prec {
        Precision::F32 => scalar_probe::<f32>(iters),
        Precision::F64 => scalar_probe::<f64>(iters),
    }
}

const PROBE_ITERS: u64 = 1 << 22;
const PROBE_REPEATS: usize = 5;

/// Peak FMA GFlop/s at one precision on `threads` threads: the best of
/// a few repeats of a register-resident loop.
pub fn fma_peak_gflops(prec: Precision, threads: usize) -> f64 {
    (0..PROBE_REPEATS)
        .map(|_| {
            let t0 = Instant::now();
            let flops: f64 = std::thread::scope(|s| {
                let handles: Vec<_> = (0..threads)
                    .map(|_| s.spawn(move || probe_once(prec, PROBE_ITERS)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("probe thread panicked"))
                    .sum()
            });
            flops / t0.elapsed().as_secs_f64() * 1e-9
        })
        .fold(0.0, f64::max)
}
