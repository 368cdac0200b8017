//! The fleet runner: scales a mixed city block of walls across the
//! scheduler, checks the serial-vs-parallel and checkpoint/resume
//! digest-identity invariants at every fleet size, and writes
//! `BENCH_fleet.json`.
//!
//! ```sh
//! cargo run -p bench --bin fleet --release             # full profile
//! cargo run -p bench --bin fleet --release -- --smoke  # CI gate
//! ```
//!
//! Exit codes: `0` success, `1` a fleet run failed or a digest
//! diverged, `2` bad usage.

use bench::fleet::{run_fleet_bench, to_json, verify, FleetScale};
use exec::Pool;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut scale = FleetScale::full();
    let mut workers: Option<usize> = None;
    let mut out_path = String::from("BENCH_fleet.json");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => scale = FleetScale::smoke(),
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
        "fleet: {} profile, {} worker(s), fleets of {:?} walls",
        if scale.smoke { "smoke" } else { "full" },
        pool.workers(),
        scale.wall_counts,
    );

    let report = match run_fleet_bench(&scale, &pool) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("fleet failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "\n{:>6} {:>9} {:>7} {:>11} {:>13} {:>8} {:>9} {:>7}",
        "walls", "capsules", "rounds", "serial_ms", "parallel_ms", "speedup", "identical", "resume"
    );
    for r in &report.rows {
        println!(
            "{:>6} {:>9} {:>7} {:>11.1} {:>13.1} {:>8} {:>9} {:>7}",
            r.walls,
            r.capsules,
            r.rounds,
            r.serial_ms,
            r.parallel_ms,
            r.speedup
                .map_or_else(|| "-".to_string(), |s| format!("{s:.2}")),
            r.parallel_identical,
            r.resume_identical,
        );
    }

    if let Err(e) = verify(&report) {
        eprintln!("fleet failed: {e}");
        return ExitCode::FAILURE;
    }

    let json = to_json(&report, &pool, &scale);
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out_path}");
    ExitCode::SUCCESS
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!("usage: fleet [--smoke] [--workers N] [--out PATH]");
    ExitCode::from(2)
}
