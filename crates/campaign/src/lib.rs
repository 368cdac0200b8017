//! Lifetime-scale SHM campaigns: an evolving structure surveyed for
//! months, with drift analytics that tell damage from drift.
//!
//! The paper's pilot (§6) monitors one footbridge over weeks; the
//! campaign layer scales that along the *time* axis the way
//! [`fleet`] scales it along the *space* axis. A campaign compresses a
//! structure's service life into scheduled survey epochs:
//!
//! - **Evolving structure** ([`StructureState`], [`DamageScenario`]):
//!   between fleet rounds the walls *change* — progressive stiffness
//!   loss drags the wave speeds and resonant carrier down, crack onset
//!   adds S-wave attenuation across the charging path, seasonal
//!   temperature/humidity drift rides on top, and capsules age toward
//!   death. All of it is scripted, seeded via [`exec::seed::derive`]
//!   streams, and projected into an
//!   [`ecocapsule::scenario::WallCondition`] per epoch.
//! - **Campaign driver** ([`Campaign`], [`CampaignOptions::run`]): each
//!   epoch evolves every wall, runs the fleet
//!   ([`fleet::FleetOptions::run`]) under
//!   the evolved conditions with derived survey seeds, and records the
//!   epoch. [`CampaignCheckpoint`] freezes the whole thing at any
//!   epoch boundary — ECOFLEET-style versioned bytes plus a trailing
//!   checksum — and resumes bit-identically.
//! - **Streaming analytics** ([`CampaignGrader`], [`GradeConfig`]):
//!   per-wall baselines learned from the early quiet epochs, drift
//!   scores over thermally *compensated* features, health grades on
//!   the paper's A–F scale ([`shm::health::HealthLevel`]), and
//!   debounced [`DetectionEvent`]s when a wall leaves its baseline.
//!
//! Determinism contract: the [`CampaignReport::digest`] is a pure
//! function of specs + options — bit-identical for any fleet worker
//! count and across any checkpoint/resume split. The differential,
//! property and golden tests in `tests/` pin all three.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod checkpoint;
mod engine;
pub mod grade;
mod report;
mod scenario;
mod state;

pub use checkpoint::CampaignCheckpoint;
pub use engine::{
    config_digest, evolve_seed, survey_seed, Campaign, CampaignOptions, CampaignWallSpec,
};
pub use grade::{
    CampaignGrader, DetectionEvent, GradeConfig, WallAssessment, WallFeatures, WallGrader,
};
pub use report::{health_from_tag, health_tag, CampaignReport, EpochRecord, WallEpoch};
pub use scenario::{DamageScenario, Seasonal, NEVER};
pub use state::{StructureState, MAX_CREEP_STRAIN, MIN_STIFFNESS_FACTOR};

/// Packs a string into digest words: its bytes 8 per word
/// (little-endian, zero-padded) followed by the byte length, so `"a"`
/// and `"a\0"` digest differently. (Same packing as the fleet layer's.)
pub(crate) fn str_words(s: &str) -> Vec<u64> {
    let bytes = s.as_bytes();
    let mut words: Vec<u64> = bytes
        .chunks(8)
        .map(|chunk| {
            chunk
                .iter()
                .enumerate()
                .fold(0u64, |acc, (i, &b)| acc | (u64::from(b) << (8 * i)))
        })
        .collect();
    words.push(bytes.len() as u64);
    words
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn str_words_distinguishes_length_and_content() {
        assert_ne!(str_words("a"), str_words("b"));
        assert_ne!(str_words("a"), str_words("a\0"));
        assert_eq!(str_words(""), vec![0]);
    }
}
