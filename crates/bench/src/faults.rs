//! The fault-matrix bench: fault intensity × retry policy, with
//! serial-vs-parallel digest identity and a recovery proof.
//!
//! Each cell of the matrix runs a batch of full wall surveys
//! ([`SelfSensingWall::run_survey`] with a fault plan installed via
//! [`SurveyOptions::fault_plan`]) on a [`FaultPlan`] generated at
//! one of the standard intensity presets, under either the no-retry
//! baseline or the backoff-retry policy. Seeds are paired: the same
//! `(intensity, survey)` pair sees the *identical* fault schedule and
//! survey RNG under both policies, so the per-intensity recovery rows
//! measure exactly what the retry layer buys and nothing else.
//!
//! Two invariants are checked by [`verify`] (and therefore by the CI
//! smoke gate, `repro --only bench_faults`):
//!
//! - **Determinism** — every cell is executed twice, once on
//!   [`Pool::serial`] and once on the given parallel pool; the FNV-1a
//!   digest over all [`SurveyReport::digest`]s must match bit-for-bit.
//! - **Recovery** — summed over the faulted intensities, the retry
//!   policy must read *strictly more* capsules than the no-retry
//!   baseline. A refactor that quietly breaks backoff (or makes faults
//!   toothless) fails the bench instead of shipping.
//!
//! The emitted `BENCH_faults.json` (schema `ecocapsule-bench-faults/1`)
//! is committed at the repo root next to `BENCH_sweeps.json`.

use dsp::{EcoError, EcoResult};
use ecocapsule::prelude::*;
use ecocapsule::scenario::CapsuleOutcome;
use exec::Pool;
use faults::{fnv1a64, FaultIntensity};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Fixed matrix seed: the fault trajectory must be comparable across
/// commits, like the sweep grids.
const MATRIX_SEED: u64 = 0xFA01_7E57;

/// Drive voltage for every survey — enough to power the whole standoff
/// set on a calm channel, so every lost capsule is the fault plan's
/// doing.
const DRIVE_V: f64 = 200.0;

/// Matrix size: [`FaultScale::full`] for the committed trajectory,
/// [`FaultScale::smoke`] for the CI gate.
#[derive(Debug, Clone, Copy)]
pub struct FaultScale {
    /// Surveys per matrix cell.
    pub surveys_per_cell: usize,
    /// Fault-plan horizon (slots) the windows are drawn over.
    pub horizon_slots: u64,
    /// Capsule standoffs of the surveyed wall (m).
    pub standoffs: &'static [f64],
    /// True for the reduced CI profile (fewer intensities and surveys).
    pub smoke: bool,
}

impl FaultScale {
    /// The committed-trajectory profile. The horizon is sized to the
    /// slots a survey of this wall actually consumes (charge + a few
    /// inventory rounds + retried reads) — windows drawn far past the
    /// last consumed slot would never perturb anything.
    #[must_use]
    pub fn full() -> Self {
        FaultScale {
            surveys_per_cell: 4,
            horizon_slots: 60,
            standoffs: &[0.5, 1.0, 1.5],
            smoke: false,
        }
    }

    /// The CI profile: two intensities, small batch.
    #[must_use]
    pub fn smoke() -> Self {
        FaultScale {
            surveys_per_cell: 2,
            horizon_slots: 40,
            standoffs: &[0.5, 1.0],
            smoke: true,
        }
    }

    /// The intensity presets this profile sweeps.
    #[must_use]
    pub fn intensities(&self) -> Vec<(&'static str, fn(u64) -> FaultIntensity)> {
        let all: Vec<(&'static str, fn(u64) -> FaultIntensity)> = vec![
            ("calm", FaultIntensity::calm),
            ("mild", FaultIntensity::mild),
            ("moderate", FaultIntensity::moderate),
            ("severe", FaultIntensity::severe),
        ];
        if self.smoke {
            all.into_iter()
                .filter(|(name, _)| *name == "calm" || *name == "severe")
                .collect()
        } else {
            all
        }
    }
}

/// The retry-policy axis of the matrix.
#[must_use]
pub fn policies() -> [(&'static str, RetryPolicy); 2] {
    [
        ("no-retry", RetryPolicy::none()),
        ("retry", RetryPolicy::paper_default()),
    ]
}

/// Aggregated outcome counts of one cell's survey batch.
#[derive(Debug, Clone, Copy, Default)]
struct OutcomeCounts {
    read: usize,
    unpowered: usize,
    collision_exhausted: usize,
    decode_failed: usize,
    readings: usize,
}

/// One matrix cell: `(intensity, policy)` over the survey batch.
#[derive(Debug, Clone)]
pub struct MatrixCell {
    /// Intensity preset name.
    pub intensity: &'static str,
    /// Policy name (`no-retry` / `retry`).
    pub policy: &'static str,
    /// Surveys in the batch.
    pub surveys: usize,
    /// Capsule slots surveyed (surveys × capsules per wall).
    pub capsules: usize,
    /// Capsules that delivered at least one reading.
    pub capsules_read: usize,
    /// Capsules that never powered (including charge-phase brownouts).
    pub capsules_unpowered: usize,
    /// Capsules powered but never inventoried.
    pub capsules_collision_exhausted: usize,
    /// Capsules inventoried but with every read undecodable.
    pub capsules_decode_failed: usize,
    /// Total sensor readings delivered.
    pub readings: usize,
    /// FNV-1a over the batch's report digests, serial pass.
    pub digest_serial: u64,
    /// Same, parallel pass.
    pub digest_parallel: u64,
}

impl MatrixCell {
    /// Whether the parallel pass reproduced the serial pass exactly.
    #[must_use]
    pub fn bit_identical(&self) -> bool {
        self.digest_serial == self.digest_parallel
    }
}

/// Per-intensity paired comparison of the two policies.
#[derive(Debug, Clone)]
pub struct RecoveryRow {
    /// Intensity preset name.
    pub intensity: &'static str,
    /// Capsules read under the retry policy.
    pub capsules_read_retry: usize,
    /// Capsules read under the no-retry baseline.
    pub capsules_read_no_retry: usize,
    /// Readings delivered under the retry policy.
    pub readings_retry: usize,
    /// Readings delivered under the no-retry baseline.
    pub readings_no_retry: usize,
}

impl RecoveryRow {
    /// Extra capsules the retry policy recovered.
    #[must_use]
    pub fn capsules_delta(&self) -> i64 {
        self.capsules_read_retry as i64 - self.capsules_read_no_retry as i64
    }

    /// Extra sensor readings the retry policy recovered.
    #[must_use]
    pub fn readings_delta(&self) -> i64 {
        self.readings_retry as i64 - self.readings_no_retry as i64
    }
}

/// The full matrix result.
#[derive(Debug, Clone)]
pub struct FaultMatrix {
    /// All `(intensity × policy)` cells.
    pub cells: Vec<MatrixCell>,
    /// One paired recovery row per intensity.
    pub recovery: Vec<RecoveryRow>,
}

impl FaultMatrix {
    /// Extra capsules recovered by retries, summed over the *faulted*
    /// intensities (calm is excluded: with no faults the policies tie
    /// by construction).
    #[must_use]
    pub fn recovered_capsules_delta(&self) -> i64 {
        self.recovery
            .iter()
            .filter(|r| r.intensity != "calm")
            .map(RecoveryRow::capsules_delta)
            .sum()
    }

    /// Extra sensor readings recovered by retries over the faulted
    /// intensities — the enforced recovery invariant. Readings are the
    /// finer-grained witness: a capsule counts as "read" if *any* of
    /// its three sensors decoded, so short fault windows that eat one
    /// read out of three show up here first.
    #[must_use]
    pub fn recovered_readings_delta(&self) -> i64 {
        self.recovery
            .iter()
            .filter(|r| r.intensity != "calm")
            .map(RecoveryRow::readings_delta)
            .sum()
    }
}

/// Runs one cell's survey batch on `pool`. Seeds depend only on
/// `(intensity_idx, survey)` so both policies face identical plans.
fn run_cell(
    scale: &FaultScale,
    intensity_idx: usize,
    intensity: fn(u64) -> FaultIntensity,
    policy: &RetryPolicy,
    pool: &Pool,
) -> EcoResult<(OutcomeCounts, u64)> {
    let mut counts = OutcomeCounts::default();
    let mut digest_words: Vec<u64> = Vec::with_capacity(scale.surveys_per_cell);
    for survey in 0..scale.surveys_per_cell {
        let pair_seed = exec::seed::derive(MATRIX_SEED, (intensity_idx * 1009 + survey) as u64);
        let plan = FaultPlan::generate(
            exec::seed::derive(pair_seed, 0),
            &intensity(scale.horizon_slots),
        );
        let mut rng = StdRng::seed_from_u64(exec::seed::derive(pair_seed, 1));
        let mut wall = SelfSensingWall::common_wall(scale.standoffs);
        let report = SurveyOptions::new()
            .tx_voltage(DRIVE_V)
            .fault_plan(&plan)
            .retry_policy(*policy)
            .pool(*pool)
            .run(&mut wall, &mut rng)?;
        for (_, outcome) in &report.outcomes {
            match outcome {
                CapsuleOutcome::Read { .. } => counts.read += 1,
                CapsuleOutcome::Unpowered => counts.unpowered += 1,
                CapsuleOutcome::CollisionExhausted => counts.collision_exhausted += 1,
                CapsuleOutcome::DecodeFailed { .. } => counts.decode_failed += 1,
            }
        }
        counts.readings += report.readings.len();
        digest_words.push(report.digest());
    }
    Ok((counts, fnv1a64(digest_words)))
}

/// Runs the whole matrix: every `(intensity, policy)` cell twice
/// (serial and on `pool`), then checks both invariants — digest
/// identity per cell, and a strictly positive recovery delta over the
/// faulted intensities.
#[must_use]
pub fn run_matrix(scale: &FaultScale, pool: &Pool) -> EcoResult<FaultMatrix> {
    let mut cells = Vec::new();
    let mut recovery = Vec::new();
    for (intensity_idx, (intensity_name, intensity)) in scale.intensities().iter().enumerate() {
        let mut reads_by_policy: Vec<(usize, usize)> = Vec::new();
        for (policy_name, policy) in policies() {
            let (counts, digest_serial) =
                run_cell(scale, intensity_idx, *intensity, &policy, &Pool::serial())?;
            let (_, digest_parallel) = run_cell(scale, intensity_idx, *intensity, &policy, pool)?;
            reads_by_policy.push((counts.read, counts.readings));
            cells.push(MatrixCell {
                intensity: intensity_name,
                policy: policy_name,
                surveys: scale.surveys_per_cell,
                capsules: scale.surveys_per_cell * scale.standoffs.len(),
                capsules_read: counts.read,
                capsules_unpowered: counts.unpowered,
                capsules_collision_exhausted: counts.collision_exhausted,
                capsules_decode_failed: counts.decode_failed,
                readings: counts.readings,
                digest_serial,
                digest_parallel,
            });
        }
        recovery.push(RecoveryRow {
            intensity: intensity_name,
            capsules_read_no_retry: reads_by_policy[0].0,
            readings_no_retry: reads_by_policy[0].1,
            capsules_read_retry: reads_by_policy[1].0,
            readings_retry: reads_by_policy[1].1,
        });
    }
    Ok(FaultMatrix { cells, recovery })
}

/// Checks the two matrix invariants: per-cell serial/parallel digest
/// identity, and a strictly positive retry-recovery delta over the
/// faulted intensities.
#[must_use]
pub fn verify(matrix: &FaultMatrix) -> EcoResult<()> {
    for cell in &matrix.cells {
        if !cell.bit_identical() {
            return Err(EcoError::Numerical {
                what: "parallel fault survey diverged from serial digest",
            });
        }
    }
    if matrix.recovered_readings_delta() <= 0 {
        return Err(EcoError::Numerical {
            what: "retry policy recovered no readings over the no-retry baseline",
        });
    }
    if matrix.recovered_capsules_delta() < 0 {
        return Err(EcoError::Numerical {
            what: "retry policy lost whole capsules vs the no-retry baseline",
        });
    }
    Ok(())
}

/// Renders the matrix as `BENCH_faults.json` (schema
/// `ecocapsule-bench-faults/1`). Hand-rolled, like the sweep emitter —
/// the workspace is hermetic, so no serde.
#[must_use]
pub fn to_json(matrix: &FaultMatrix, pool: &Pool, scale: &FaultScale) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"ecocapsule-bench-faults/1\",\n");
    out.push_str(&format!("  \"pool_workers\": {},\n", pool.workers()));
    out.push_str(&format!("  \"smoke\": {},\n", scale.smoke));
    out.push_str(&format!(
        "  \"surveys_per_cell\": {},\n",
        scale.surveys_per_cell
    ));
    out.push_str(&format!("  \"horizon_slots\": {},\n", scale.horizon_slots));
    out.push_str("  \"cells\": [\n");
    for (k, c) in matrix.cells.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"intensity\": \"{}\",\n", c.intensity));
        out.push_str(&format!("      \"policy\": \"{}\",\n", c.policy));
        out.push_str(&format!("      \"surveys\": {},\n", c.surveys));
        out.push_str(&format!("      \"capsules\": {},\n", c.capsules));
        out.push_str(&format!("      \"capsules_read\": {},\n", c.capsules_read));
        out.push_str(&format!(
            "      \"capsules_unpowered\": {},\n",
            c.capsules_unpowered
        ));
        out.push_str(&format!(
            "      \"capsules_collision_exhausted\": {},\n",
            c.capsules_collision_exhausted
        ));
        out.push_str(&format!(
            "      \"capsules_decode_failed\": {},\n",
            c.capsules_decode_failed
        ));
        out.push_str(&format!("      \"readings\": {},\n", c.readings));
        out.push_str(&format!(
            "      \"bit_identical\": {},\n",
            c.bit_identical()
        ));
        out.push_str(&format!(
            "      \"digest\": \"{:#018x}\"\n",
            c.digest_serial
        ));
        out.push_str(if k + 1 == matrix.cells.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ],\n");
    out.push_str("  \"recovery\": [\n");
    for (k, r) in matrix.recovery.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"intensity\": \"{}\",\n", r.intensity));
        out.push_str(&format!(
            "      \"capsules_read_retry\": {},\n",
            r.capsules_read_retry
        ));
        out.push_str(&format!(
            "      \"capsules_read_no_retry\": {},\n",
            r.capsules_read_no_retry
        ));
        out.push_str(&format!(
            "      \"readings_retry\": {},\n",
            r.readings_retry
        ));
        out.push_str(&format!(
            "      \"readings_no_retry\": {},\n",
            r.readings_no_retry
        ));
        out.push_str(&format!(
            "      \"capsules_delta\": {},\n",
            r.capsules_delta()
        ));
        out.push_str(&format!(
            "      \"readings_delta\": {}\n",
            r.readings_delta()
        ));
        out.push_str(if k + 1 == matrix.recovery.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"recovered_capsules_delta\": {},\n",
        matrix.recovered_capsules_delta()
    ));
    out.push_str(&format!(
        "  \"recovered_readings_delta\": {}\n",
        matrix.recovered_readings_delta()
    ));
    out.push_str("}\n");
    out
}
