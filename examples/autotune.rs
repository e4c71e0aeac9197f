//! Auto-tune GEMM for one device and print a Table-II-style summary.
//!
//! ```text
//! cargo run --release -p clgemm --example autotune -- fermi sgemm
//! cargo run --release -p clgemm --example autotune -- tahiti dgemm --smoke
//! ```
//!
//! Exits 1 when the winner fails functional verification (generate →
//! compile → run in the clc VM → compare with the native executor).

use clgemm::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let device_name = args.first().map(String::as_str).unwrap_or("tahiti");
    let precision = match args.get(1).map(String::as_str).unwrap_or("dgemm") {
        "sgemm" | "f32" | "single" => Precision::F32,
        _ => Precision::F64,
    };
    let smoke = args.iter().any(|a| a == "--smoke");

    let device: DeviceSpec = match device_name.parse::<DeviceId>() {
        Ok(id) => id.spec(),
        Err(e) => {
            eprintln!("{e}");
            eprintln!("known devices: tahiti cayman kepler fermi sandybridge bulldozer cypress");
            std::process::exit(2);
        }
    };

    let space = if smoke {
        SearchSpace::smoke(&device)
    } else {
        SearchSpace::for_device(&device)
    };
    println!("tuning {precision} on {device} ...");
    let t0 = std::time::Instant::now();
    let res = tune(&device, precision, &space, &SearchOpts::default());
    println!(
        "searched {} candidates ({} unlaunchable) in {:.1}s; winner verified: {}",
        res.candidates,
        res.failures,
        t0.elapsed().as_secs_f64(),
        res.verified
    );

    println!(
        "\nbest kernel: {:.1} GFlop/s at N={} ({:.1}% of listed peak)",
        res.best.gflops,
        res.best.n,
        100.0 * res.efficiency
    );
    println!("  {}", res.best.params.describe());

    println!("\ntop {} kernels:", res.top.len().min(10));
    for (rank, m) in res.top.iter().take(10).enumerate() {
        println!(
            "  #{:<2} {:>8.1} GF  {}",
            rank + 1,
            m.gflops,
            m.params.describe()
        );
    }

    println!("\nwinner across sizes:");
    let show_every = (res.sweep.len() / 12).max(1);
    for (i, (n, g)) in res.sweep.iter().enumerate() {
        if i % show_every == 0 {
            println!("  N={n:<6} {g:>8.1} GF");
        }
    }

    if !res.verified {
        eprintln!("the winner failed functional verification");
        std::process::exit(1);
    }
}
