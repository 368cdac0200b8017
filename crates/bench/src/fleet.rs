//! The fleet bench: scheduler scaling vs. wall count, plus the fleet
//! determinism invariants — for every wall count in the grid, the fleet
//! digest must be identical serial vs. parallel and across a
//! checkpoint/resume split at the run's midpoint.
//!
//! Each grid point builds a mixed city block: capsule counts cycling
//! 0/1/2, every third wall on a faulted channel, and (in the full
//! profile's largest fleet) the §6 footbridge pilot as one wall among
//! many. The emitted `BENCH_fleet.json` (schema `ecocapsule-bench-fleet/1`)
//! is committed at the repo root next to the other bench artifacts; CI
//! re-runs the smoke profile and gates on [`verify`].

use dsp::{EcoError, EcoResult};
use exec::Pool;
use faults::{FaultIntensity, FaultPlan};
use fleet::{Fleet, FleetCheckpoint, FleetOptions, WallSpec};
use std::time::Instant;

/// Fixed bench seed, like the sweep grids: digests must be comparable
/// across commits.
const FLEET_SEED: u64 = 0xF1EE_7000;

/// Fault-plan horizon (slots) for the faulted walls.
const HORIZON_SLOTS: u64 = 200;

/// Bench size: [`FleetScale::full`] for the committed summary,
/// [`FleetScale::smoke`] for the CI gate.
#[derive(Debug, Clone, Copy)]
pub struct FleetScale {
    /// Fleet sizes (wall counts) to scale across.
    pub wall_counts: &'static [usize],
    /// Whether the largest fleet includes the five-capsule footbridge
    /// pilot wall.
    pub with_pilot: bool,
    /// True for the reduced CI profile.
    pub smoke: bool,
}

impl FleetScale {
    /// The committed-summary profile.
    #[must_use]
    pub fn full() -> Self {
        FleetScale {
            wall_counts: &[2, 4, 8, 12],
            with_pilot: true,
            smoke: false,
        }
    }

    /// The CI profile: fewer, smaller fleets, same invariants.
    #[must_use]
    pub fn smoke() -> Self {
        FleetScale {
            wall_counts: &[2, 8],
            with_pilot: false,
            smoke: true,
        }
    }
}

/// The mixed city block surveyed at every grid point: wall `i` gets
/// `i % 3` capsules and every third wall a faulted channel. With
/// `pilot` the last wall is the §6 footbridge pilot.
#[must_use]
pub fn city_block(walls: usize, pilot: bool) -> Vec<WallSpec> {
    let mut specs: Vec<WallSpec> = (0..walls)
        .map(|i| {
            let standoffs: Vec<f64> = (0..i % 3).map(|c| 0.4 + 0.3 * c as f64).collect();
            let spec = WallSpec::new(format!("wall-{i}"), standoffs).seed(FLEET_SEED ^ (i as u64));
            if i % 3 == 1 {
                spec.fault_plan(FaultPlan::generate(
                    FLEET_SEED.wrapping_add(i as u64),
                    &FaultIntensity::mild(HORIZON_SLOTS),
                ))
            } else {
                spec
            }
        })
        .collect();
    if pilot && walls > 0 {
        specs[walls - 1] = WallSpec::footbridge_pilot(FLEET_SEED);
    }
    specs
}

/// One grid point: a fleet of `walls` run serial, parallel, and resumed
/// from a mid-run checkpoint.
#[derive(Debug, Clone)]
pub struct FleetRow {
    /// Fleet size (walls).
    pub walls: usize,
    /// Total capsules across the fleet.
    pub capsules: usize,
    /// Scheduling rounds the run took.
    pub rounds: u64,
    /// Serial wall-clock (ms).
    pub serial_ms: f64,
    /// Parallel wall-clock (ms).
    pub parallel_ms: f64,
    /// `serial_ms / parallel_ms`; `None` on a one-worker pool, where
    /// the ratio is only noise.
    pub speedup: Option<f64>,
    /// The serial run's fleet digest.
    pub digest: u64,
    /// Parallel digest equals the serial digest.
    pub parallel_identical: bool,
    /// Checkpoint/resume digest equals the serial digest.
    pub resume_identical: bool,
    /// Round the checkpoint was taken at (the midpoint).
    pub checkpoint_round: u64,
}

/// The full fleet bench result.
#[derive(Debug, Clone)]
pub struct FleetBenchReport {
    /// One row per wall count, in grid order.
    pub rows: Vec<FleetRow>,
}

/// Runs a fleet halfway, checkpoints it through the byte format, and
/// finishes the run from the decoded checkpoint.
fn resumed_digest(
    specs: Vec<WallSpec>,
    options: &FleetOptions,
    total_rounds: u64,
) -> EcoResult<(u64, u64)> {
    let split = total_rounds / 2;
    let mut fleet = Fleet::new(specs.clone(), options);
    for _ in 0..split {
        if !fleet.is_done() {
            fleet.run_round()?;
        }
    }
    let bytes = fleet.checkpoint()?.to_bytes();
    let checkpoint = FleetCheckpoint::from_bytes(&bytes)?;
    let report = Fleet::resume(specs, options, &checkpoint)?.run_to_completion()?;
    Ok((report.digest(), split))
}

/// Runs the grid: for every wall count, serial vs. parallel vs.
/// checkpoint/resume, timing the first two.
#[must_use]
pub fn run_fleet_bench(scale: &FleetScale, pool: &Pool) -> EcoResult<FleetBenchReport> {
    let options = FleetOptions::new().quantum_slots(32).round_budget_slots(96);
    let mut rows = Vec::new();
    for &walls in scale.wall_counts {
        let pilot =
            scale.with_pilot && walls == scale.wall_counts.iter().copied().max().unwrap_or(0);
        let specs = city_block(walls, pilot);
        let capsules = specs.iter().map(|s| s.standoffs_m.len()).sum();

        let t0 = Instant::now();
        let serial = options.run(specs.clone())?;
        let serial_ms = t0.elapsed().as_secs_f64() * 1e3;

        let t1 = Instant::now();
        let parallel = options.pool(*pool).run(specs.clone())?;
        let parallel_ms = t1.elapsed().as_secs_f64() * 1e3;

        let (resume_digest, checkpoint_round) = resumed_digest(specs, &options, serial.rounds)?;

        rows.push(FleetRow {
            walls,
            capsules,
            rounds: serial.rounds,
            serial_ms,
            parallel_ms,
            speedup: (pool.workers() > 1).then(|| serial_ms / parallel_ms.max(1e-9)),
            digest: serial.digest(),
            parallel_identical: parallel.digest() == serial.digest(),
            resume_identical: resume_digest == serial.digest(),
            checkpoint_round,
        });
    }
    Ok(FleetBenchReport { rows })
}

/// Checks the bench invariants: every row's parallel and resumed
/// digests match its serial digest, and fleets actually scheduled work.
#[must_use]
pub fn verify(report: &FleetBenchReport) -> EcoResult<()> {
    if report.rows.is_empty() {
        return Err(EcoError::Numerical {
            what: "fleet bench produced no rows",
        });
    }
    for row in &report.rows {
        if row.rounds == 0 {
            return Err(EcoError::Numerical {
                what: "fleet run consumed no scheduling rounds",
            });
        }
        if !row.parallel_identical {
            return Err(EcoError::Numerical {
                what: "parallel fleet digest diverged from serial digest",
            });
        }
        if !row.resume_identical {
            return Err(EcoError::Numerical {
                what: "resumed fleet digest diverged from uninterrupted digest",
            });
        }
    }
    Ok(())
}

/// Renders the report as `BENCH_fleet.json` (schema
/// `ecocapsule-bench-fleet/1`). Hand-rolled, like the other bench
/// emitters — the workspace is hermetic, so no serde.
#[must_use]
pub fn to_json(report: &FleetBenchReport, pool: &Pool, scale: &FleetScale) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"ecocapsule-bench-fleet/1\",\n");
    out.push_str(&format!("  \"pool_workers\": {},\n", pool.workers()));
    out.push_str(&format!("  \"smoke\": {},\n", scale.smoke));
    out.push_str(&format!("  \"with_pilot\": {},\n", scale.with_pilot));
    out.push_str("  \"rows\": [\n");
    for (k, r) in report.rows.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"walls\": {},\n", r.walls));
        out.push_str(&format!("      \"capsules\": {},\n", r.capsules));
        out.push_str(&format!("      \"rounds\": {},\n", r.rounds));
        out.push_str(&format!("      \"serial_ms\": {:.3},\n", r.serial_ms));
        out.push_str(&format!("      \"parallel_ms\": {:.3},\n", r.parallel_ms));
        if let Some(speedup) = r.speedup {
            out.push_str(&format!("      \"speedup\": {speedup:.3},\n"));
        }
        out.push_str(&format!("      \"digest\": \"{:#018x}\",\n", r.digest));
        out.push_str(&format!(
            "      \"parallel_identical\": {},\n",
            r.parallel_identical
        ));
        out.push_str(&format!(
            "      \"resume_identical\": {},\n",
            r.resume_identical
        ));
        out.push_str(&format!(
            "      \"checkpoint_round\": {}\n",
            r.checkpoint_round
        ));
        out.push_str(if k + 1 == report.rows.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}
