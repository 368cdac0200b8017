//! The observability bench: recorded survey traces summarized into
//! per-span slot statistics and counter totals, plus the trace-identity
//! invariant — a [`MemoryRecorder`] trace of the same survey must be
//! byte-identical at every worker count.
//!
//! Two scenarios are recorded, both on the S3 common wall:
//!
//! - **quiet** — no fault plan, the virtual slot clock drives the
//!   timestamps;
//! - **faulted** — a moderate [`FaultPlan`] with the paper-default
//!   retry policy, timestamps following the fault timeline.
//!
//! Each scenario runs once on [`Pool::serial`] and once on the given
//! parallel pool; [`verify`] fails unless both JSONL renderings match
//! byte-for-byte and the traces are non-empty. The emitted
//! `BENCH_obs.json` (schema `ecocapsule-bench-obs/1`) is committed at
//! the repo root next to the other bench artifacts.

use dsp::{EcoError, EcoResult};
use ecocapsule::prelude::*;
use exec::Pool;
use faults::FaultIntensity;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Fixed bench seed, like the sweep grids: traces must be comparable
/// across commits.
const OBS_SEED: u64 = 0x0B5E_57A7;

/// Drive voltage for every recorded survey.
const DRIVE_V: f64 = 200.0;

/// Bench size: [`ObsScale::full`] for the committed summary,
/// [`ObsScale::smoke`] for the CI gate.
#[derive(Debug, Clone, Copy)]
pub struct ObsScale {
    /// Capsule standoffs of the surveyed wall (m).
    pub standoffs: &'static [f64],
    /// Fault-plan horizon (slots) for the faulted scenario.
    pub horizon_slots: u64,
    /// True for the reduced CI profile.
    pub smoke: bool,
}

impl ObsScale {
    /// The committed-summary profile.
    #[must_use]
    pub fn full() -> Self {
        ObsScale {
            standoffs: &[0.5, 1.0, 1.5],
            horizon_slots: 60,
            smoke: false,
        }
    }

    /// The CI profile: a smaller wall, same invariants.
    #[must_use]
    pub fn smoke() -> Self {
        ObsScale {
            standoffs: &[0.5, 1.0],
            horizon_slots: 40,
            smoke: true,
        }
    }
}

/// Statistics of one trace histogram: span open→close slot spends
/// under the span's name, observed values under the observation's name.
#[derive(Debug, Clone)]
pub struct HistStat {
    /// Histogram name (`"survey"`, `"inventory.round"`, `"inventory.q"`, …).
    pub name: String,
    /// Samples recorded.
    pub count: u64,
    /// Median sample (log2-bucket upper bound).
    pub p50: u64,
    /// 99th-percentile sample (log2-bucket upper bound).
    pub p99: u64,
    /// Largest sample observed (exact).
    pub max: u64,
}

/// One recorded scenario's summary.
#[derive(Debug, Clone)]
pub struct ScenarioSummary {
    /// Scenario name (`quiet` / `faulted`).
    pub name: &'static str,
    /// Events in the serial trace.
    pub events: usize,
    /// Whether the parallel trace matched the serial trace byte-for-byte.
    pub bit_identical: bool,
    /// Per-histogram statistics (spans and observations), in name order.
    pub histograms: Vec<HistStat>,
    /// Counter totals, in counter-name order.
    pub counters: Vec<(String, u64)>,
}

/// The full observability bench result.
#[derive(Debug, Clone)]
pub struct ObsReport {
    /// Both scenario summaries.
    pub scenarios: Vec<ScenarioSummary>,
}

/// Builds the scenario's survey options against `plan` and `pool` and
/// runs it once, returning the recorder.
fn record_survey(
    scale: &ObsScale,
    plan: Option<&FaultPlan>,
    pool: Pool,
) -> EcoResult<MemoryRecorder> {
    let mut wall = SelfSensingWall::common_wall(scale.standoffs);
    let mut rng = StdRng::seed_from_u64(OBS_SEED);
    let mut rec = MemoryRecorder::new();
    let mut options = SurveyOptions::new()
        .tx_voltage(DRIVE_V)
        .pool(pool)
        .recorder(&mut rec);
    if let Some(plan) = plan {
        options = options
            .fault_plan(plan)
            .retry_policy(RetryPolicy::paper_default());
    }
    options.run(&mut wall, &mut rng)?;
    Ok(rec)
}

/// Summarizes one scenario: serial reference trace, parallel identity
/// check, span statistics and counter totals.
fn run_scenario(
    name: &'static str,
    scale: &ObsScale,
    plan: Option<&FaultPlan>,
    pool: &Pool,
) -> EcoResult<ScenarioSummary> {
    let reference = record_survey(scale, plan, Pool::serial())?;
    let parallel = record_survey(scale, plan, *pool)?;
    let bit_identical = reference.to_jsonl() == parallel.to_jsonl();
    let histograms = reference
        .histograms()
        .map(|(name, h)| HistStat {
            name: name.to_string(),
            count: h.count(),
            p50: h.p50(),
            p99: h.p99(),
            max: h.max(),
        })
        .collect();
    let counters = reference
        .counter_totals()
        .map(|(name, total)| (name.to_string(), total))
        .collect();
    Ok(ScenarioSummary {
        name,
        events: reference.len(),
        bit_identical,
        histograms,
        counters,
    })
}

/// Runs both scenarios and assembles the report.
#[must_use]
pub fn run_obs(scale: &ObsScale, pool: &Pool) -> EcoResult<ObsReport> {
    let plan = FaultPlan::generate(OBS_SEED, &FaultIntensity::moderate(scale.horizon_slots));
    Ok(ObsReport {
        scenarios: vec![
            run_scenario("quiet", scale, None, pool)?,
            run_scenario("faulted", scale, Some(&plan), pool)?,
        ],
    })
}

/// Checks the bench invariants: every scenario's trace is non-empty and
/// byte-identical between the serial and parallel passes.
#[must_use]
pub fn verify(report: &ObsReport) -> EcoResult<()> {
    for s in &report.scenarios {
        if s.events == 0 {
            return Err(EcoError::Numerical {
                what: "recorded survey produced an empty trace",
            });
        }
        if !s.bit_identical {
            return Err(EcoError::Numerical {
                what: "parallel survey trace diverged from serial trace",
            });
        }
    }
    Ok(())
}

/// Renders the report as `BENCH_obs.json` (schema
/// `ecocapsule-bench-obs/1`). Hand-rolled, like the other bench
/// emitters — the workspace is hermetic, so no serde.
#[must_use]
pub fn to_json(report: &ObsReport, pool: &Pool, scale: &ObsScale) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"ecocapsule-bench-obs/1\",\n");
    out.push_str(&format!("  \"pool_workers\": {},\n", pool.workers()));
    out.push_str(&format!("  \"smoke\": {},\n", scale.smoke));
    out.push_str(&format!("  \"capsules\": {},\n", scale.standoffs.len()));
    out.push_str(&format!("  \"horizon_slots\": {},\n", scale.horizon_slots));
    out.push_str("  \"scenarios\": [\n");
    for (k, s) in report.scenarios.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"name\": \"{}\",\n", s.name));
        out.push_str(&format!("      \"events\": {},\n", s.events));
        out.push_str(&format!("      \"bit_identical\": {},\n", s.bit_identical));
        out.push_str("      \"histograms\": [\n");
        for (j, h) in s.histograms.iter().enumerate() {
            out.push_str(&format!(
                "        {{\"name\": \"{}\", \"count\": {}, \"p50\": {}, \
                 \"p99\": {}, \"max\": {}}}{}\n",
                h.name,
                h.count,
                h.p50,
                h.p99,
                h.max,
                if j + 1 == s.histograms.len() { "" } else { "," }
            ));
        }
        out.push_str("      ],\n");
        out.push_str("      \"counters\": {\n");
        for (j, (name, total)) in s.counters.iter().enumerate() {
            out.push_str(&format!(
                "        \"{}\": {}{}\n",
                name,
                total,
                if j + 1 == s.counters.len() { "" } else { "," }
            ));
        }
        out.push_str("      }\n");
        out.push_str(if k + 1 == report.scenarios.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}
