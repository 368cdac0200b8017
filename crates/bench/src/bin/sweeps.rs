//! The sweep runner: times every workload grid serial vs. parallel,
//! verifies bit-identity, and writes `BENCH_sweeps.json`.
//!
//! ```sh
//! cargo run -p bench --bin sweeps --release            # full trajectory
//! cargo run -p bench --bin sweeps --release -- --smoke # CI gate
//! cargo run -p bench --bin sweeps -- --workers 4 --out /tmp/b.json
//! ```
//!
//! Exit codes: `0` success, `1` a workload failed or parallel output
//! diverged from serial, `2` bad usage.

use bench::sweeps::{run_all, to_json, Scale};
use exec::Pool;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut scale = Scale::full();
    let mut workers: Option<usize> = None;
    let mut out_path = String::from("BENCH_sweeps.json");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => scale = Scale::smoke(),
            "--workers" => match it.next().and_then(|w| w.parse().ok()) {
                Some(w) => workers = Some(w),
                None => return usage("--workers requires a positive integer"),
            },
            "--out" => match it.next() {
                Some(p) => out_path = p.clone(),
                None => return usage("--out requires a path"),
            },
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }
    let pool = workers.map_or_else(Pool::max_parallel, Pool::new);
    println!(
        "sweeps: {} profile, {} worker(s) (host has {})",
        if scale.smoke { "smoke" } else { "full" },
        pool.workers(),
        Pool::max_parallel().workers(),
    );

    let results = match run_all(&scale, &pool) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("sweeps failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "{:>14} {:>6} {:>12} {:>12} {:>8} {:>10}",
        "workload", "tasks", "serial_ms", "parallel_ms", "speedup", "identical"
    );
    for r in &results {
        println!(
            "{:>14} {:>6} {:>12.1} {:>12.1} {:>8} {:>10}",
            r.name,
            r.tasks,
            r.serial_wall_ms,
            r.parallel_wall_ms,
            r.speedup()
                .map_or_else(|| "-".to_string(), |s| format!("{s:.2}x")),
            r.bit_identical(),
        );
        for (stage, ms) in &r.stage_cpu_ms {
            println!("{:>14}   · {stage}: {ms:.1} ms serial CPU", "");
        }
    }

    let json = to_json(&results, &pool, &scale);
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out_path}");
    ExitCode::SUCCESS
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!("usage: sweeps [--smoke] [--workers N] [--out PATH]");
    ExitCode::from(2)
}
