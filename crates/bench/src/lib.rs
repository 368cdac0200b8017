//! Benchmark harness regenerating the tables and figures of the paper.
//!
//! Two binaries live on top of this library:
//!
//! - `experiments` — the headline figures (link budget, BER curves,
//!   localization, pilot study);
//! - `ablations` — design-space sweeps over coding, geometry, and
//!   materials.
//!
//! The seven benches behind the committed `BENCH_*.json` files are
//! library modules, each a `run` + `verify` + `to_json` triple driven by
//! the repro harness (`cargo xtask repro --only bench_<name>`):
//!
//! - [`sweeps`] — serial-vs-parallel timed parameter grids;
//! - [`faults`] — the fault-intensity × retry-policy matrix;
//! - [`obs`] — recorded-survey trace summaries and the worker-count
//!   trace-identity invariant;
//! - [`fleet`] — scheduler scaling vs. wall count and the fleet
//!   digest-identity invariants;
//! - [`hotpath`] — per-stage scalar-vs-batched ns/sample of the survey
//!   inner loop;
//! - [`campaign`] — detection-latency/false-alarm curves over the
//!   damage-scenario × seasonal-drift grid and the campaign
//!   digest-identity invariants;
//! - [`serve`] — live-daemon query throughput/latency under concurrent
//!   readers, restart recovery time, and the serve digest-identity
//!   invariants.
//!
//! Keeping them in the library lets the integration tests assert
//! bit-identical parallel execution without crossing a process
//! boundary.

#![forbid(unsafe_code)]

pub mod campaign;
pub mod experiments;
pub mod faults;
pub mod fleet;
pub mod hotpath;
pub mod obs;
pub mod serve;
pub mod sweeps;

/// Prints a two-column numeric series with a caption.
pub fn print_series(caption: &str, x_label: &str, y_label: &str, rows: &[(f64, f64)]) {
    println!("\n== {caption} ==");
    println!("{x_label:>14} {y_label:>14}");
    for (x, y) in rows {
        if y.is_finite() {
            println!("{x:>14.3} {y:>14.4}");
        } else {
            println!("{x:>14.3} {:>14}", "-");
        }
    }
}

/// Prints a table with a header row and aligned numeric cells.
pub fn print_table(caption: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {caption} ==");
    for h in header {
        print!("{h:>14}");
    }
    println!();
    for row in rows {
        for cell in row {
            print!("{cell:>14}");
        }
        println!();
    }
}

/// Formats a float or "-" for non-finite values.
pub fn fmt(v: f64, decimals: usize) -> String {
    if v.is_finite() {
        format!("{v:.decimals$}")
    } else {
        "-".to_string()
    }
}
