//! Fleet-scale survey scheduling: many self-sensing walls, one reader
//! budget.
//!
//! The paper's endgame (§6) is city-scale structural health monitoring:
//! many instrumented structures, each an EcoCapsule-filled wall polled
//! over slotted TDMA. A single wall is served by
//! [`ecocapsule::scenario::SurveyOptions`]; this crate adds the layer
//! above it — a deterministic scheduler that shards N heterogeneous
//! walls (mixed capsule counts, fault plans, retry policies) across the
//! [`exec::Pool`]:
//!
//! - **Slot budgeting** ([`SlotBudget`], [`Scheduler`]): each scheduling
//!   round hands out a bounded budget of virtual slots, one bounded
//!   quantum per wall in round-robin order; walls passed over age toward
//!   priority, so no wall starves. A wall's survey executes in the round
//!   where its granted slots first cover its demand
//!   ([`ecocapsule::scenario::SurveyOptions::slot_demand`]).
//! - **Checkpoint/resume** ([`FleetCheckpoint`]): the full scheduler and
//!   result state serializes to a versioned byte format; resuming at any
//!   round boundary reproduces the uninterrupted run bit-for-bit — a
//!   multi-month pilot can stop and restart without perturbing a digest.
//! - **Aggregated observability**: every wall's survey records into its
//!   own [`obs::MemoryRecorder`]; per-wall traces, counters and
//!   [`obs::Histogram`] summaries land in the [`FleetReport`], which
//!   merges them into one fleet-level JSONL trace and fleet-wide
//!   histograms.
//!
//! Determinism contract: each wall's survey runs on [`exec::Pool::serial`]
//! with an RNG seeded from its [`WallSpec::seed`], and results merge by
//! wall index — so the [`FleetReport::digest`] is bit-identical for any
//! fleet worker count and across any checkpoint/resume split. The
//! differential, property and golden tests in `tests/` pin all three.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod checkpoint;
mod engine;
mod report;
mod scheduler;
mod spec;

pub use checkpoint::FleetCheckpoint;
pub use engine::{Fleet, FleetOptions};
pub use report::{FleetReport, WallResult};
pub use scheduler::{Grant, Scheduler, SlotBudget};
pub use spec::WallSpec;

/// Packs a string into digest/wire words: its bytes 8 per word
/// (little-endian, zero-padded) followed by the byte length, so `"a"`
/// and `"a\0"` digest differently.
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
        assert_eq!(str_words("abcdefghi").len(), 3, "2 data words + length");
    }
}
