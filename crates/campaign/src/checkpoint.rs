//! Campaign checkpoint/resume: the full mid-campaign state in a
//! versioned byte format.
//!
//! Wire layout (all integers little-endian u64 unless noted):
//!
//! ```text
//! magic  "ECOCAMPN"              8 bytes
//! version                        u64   (currently 1)
//! config_digest                  u64   FNV-1a over specs + options
//! epochs_run                     u64
//! n_walls                        u64
//! per wall:
//!   state words                  length-prefixed (StructureState)
//!   grader words                 length-prefixed (WallGrader)
//! n_records                      u64
//! per record:
//!   epoch, day, fleet_digest
//!   n_walls_in_record; per wall:
//!     name (len + bytes), result_digest,
//!     7 feature words, score bits, grade tag
//! n_detections                   u64
//! per detection:
//!   wall (len + bytes), epoch, day, feature tag, score bits
//! checksum                       u64   FNV-1a over every previous byte
//! ```
//!
//! Words are written and bounds-checked by the shared
//! [`faults::codec`]. The trailing checksum makes hostile corruption
//! *detectable*, not just survivable: any bit flip in the
//! structure-state section (or anywhere else) fails the checksum before
//! field decoding even runs, and every decoder underneath is
//! bounds-checked so a forged checksum still cannot cause a panic —
//! only an [`EcoError`].

use dsp::{EcoError, EcoResult};
use faults::codec::{checked_body, put_checksum, put_str, put_u64, put_words, Dec};

use crate::engine::{config_digest, Campaign, CampaignOptions, CampaignWallSpec};
use crate::grade::{feature_from_tag, feature_tag, DetectionEvent, WallFeatures, WallGrader};
use crate::report::{health_from_tag, health_tag, EpochRecord, WallEpoch};
use crate::state::StructureState;

const MAGIC: &[u8; 8] = b"ECOCAMPN";
const CHECKPOINT_VERSION: u64 = 1;

/// A campaign frozen at an epoch boundary; resuming reproduces the
/// uninterrupted run bit-for-bit.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignCheckpoint {
    config_digest: u64,
    epochs_run: u64,
    states: Vec<StructureState>,
    /// Grader state as raw words: the grader's [`crate::GradeConfig`]
    /// is not serialized (the config digest already pins it), so the
    /// words are only decoded at [`CampaignCheckpoint::resume`] time,
    /// under the offered options' config.
    grader_words: Vec<Vec<u64>>,
    records: Vec<EpochRecord>,
    detections: Vec<DetectionEvent>,
}

impl CampaignCheckpoint {
    /// Snapshots `campaign` at its current epoch boundary.
    #[must_use]
    pub fn of(campaign: &Campaign) -> CampaignCheckpoint {
        let grader_words = campaign
            .specs()
            .iter()
            .map(|spec| campaign.grader().graders()[&spec.base.name].encode_words())
            .collect();
        CampaignCheckpoint {
            config_digest: config_digest(campaign.specs(), campaign.options()),
            epochs_run: campaign.epochs_run(),
            states: campaign.states().to_vec(),
            grader_words,
            records: campaign.records().to_vec(),
            detections: campaign.detections().to_vec(),
        }
    }

    /// The configuration digest this checkpoint was taken under.
    #[must_use]
    pub fn config_digest(&self) -> u64 {
        self.config_digest
    }

    /// Epochs completed when the checkpoint was taken.
    #[must_use]
    pub fn epochs_run(&self) -> u64 {
        self.epochs_run
    }

    /// Rebuilds the campaign. The offered `specs` and `options` must
    /// hash to the checkpoint's config digest; every decoded structure
    /// state must validate.
    #[must_use]
    pub fn resume(
        &self,
        specs: Vec<CampaignWallSpec>,
        options: CampaignOptions,
    ) -> EcoResult<Campaign> {
        options.validate()?;
        if self.config_digest != config_digest(&specs, &options) {
            return Err(EcoError::Protocol {
                what: "campaign checkpoint config digest mismatch",
            });
        }
        if self.states.len() != specs.len() || self.grader_words.len() != specs.len() {
            return Err(EcoError::Protocol {
                what: "campaign checkpoint wall count mismatch",
            });
        }
        if self.epochs_run > options.epochs || self.records.len() as u64 != self.epochs_run {
            return Err(EcoError::Protocol {
                what: "campaign checkpoint epoch bookkeeping mismatch",
            });
        }
        for (state, spec) in self.states.iter().zip(&specs) {
            state.validate()?;
            if state.epoch != self.epochs_run {
                return Err(EcoError::Protocol {
                    what: "campaign checkpoint state epoch mismatch",
                });
            }
            if state.capsule_derating.len() != spec.base.standoffs_m.len() {
                return Err(EcoError::Protocol {
                    what: "campaign checkpoint capsule count mismatch",
                });
            }
        }
        let names: Vec<String> = specs.iter().map(|s| s.base.name.clone()).collect();
        let mut grader = crate::grade::CampaignGrader::new(options.grading, &names)?;
        for (name, words) in names.iter().zip(&self.grader_words) {
            let wall_grader =
                WallGrader::decode_words(options.grading, words).ok_or(EcoError::Protocol {
                    what: "malformed campaign grader state",
                })?;
            grader.restore(name, wall_grader)?;
        }
        Ok(Campaign::restore(
            specs,
            options,
            self.states.clone(),
            grader,
            self.records.clone(),
            self.detections.clone(),
        ))
    }

    /// Serializes the checkpoint.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        put_u64(&mut out, CHECKPOINT_VERSION);
        put_u64(&mut out, self.config_digest);
        put_u64(&mut out, self.epochs_run);
        put_u64(&mut out, self.states.len() as u64);
        for (state, grader) in self.states.iter().zip(&self.grader_words) {
            put_words(&mut out, &state.encode_words());
            put_words(&mut out, grader);
        }
        put_u64(&mut out, self.records.len() as u64);
        for record in &self.records {
            put_u64(&mut out, record.epoch);
            put_u64(&mut out, record.day);
            put_u64(&mut out, record.fleet_digest);
            put_u64(&mut out, record.walls.len() as u64);
            for wall in &record.walls {
                put_str(&mut out, &wall.name);
                put_u64(&mut out, wall.result_digest);
                for word in wall.features.encode_words() {
                    put_u64(&mut out, word);
                }
                put_u64(&mut out, wall.score.to_bits());
                put_u64(&mut out, health_tag(wall.grade));
            }
        }
        put_u64(&mut out, self.detections.len() as u64);
        for detection in &self.detections {
            put_str(&mut out, &detection.wall);
            put_u64(&mut out, detection.epoch);
            put_u64(&mut out, detection.day);
            put_u64(&mut out, feature_tag(detection.feature).unwrap_or(u64::MAX));
            put_u64(&mut out, detection.score.to_bits());
        }
        put_checksum(&mut out);
        out
    }

    /// Deserializes a checkpoint, rejecting (never panicking on) any
    /// corruption: bad magic/version, a failed trailing checksum,
    /// truncation, oversized lengths, malformed sections, or trailing
    /// bytes.
    #[must_use]
    pub fn from_bytes(bytes: &[u8]) -> EcoResult<CampaignCheckpoint> {
        let body = checked_body(bytes)?;
        let mut d = Dec::new(body);
        if d.take(MAGIC.len())? != MAGIC {
            return Err(EcoError::Protocol {
                what: "bad campaign checkpoint magic",
            });
        }
        if d.u64()? != CHECKPOINT_VERSION {
            return Err(EcoError::Protocol {
                what: "unsupported campaign checkpoint version",
            });
        }
        let config_digest = d.u64()?;
        let epochs_run = d.u64()?;
        let n_walls = d.len()?;
        let mut states = Vec::with_capacity(n_walls);
        let mut grader_words = Vec::with_capacity(n_walls);
        for _ in 0..n_walls {
            let state_words = d.words()?;
            states.push(
                StructureState::decode_words(&state_words).ok_or(EcoError::Protocol {
                    what: "malformed campaign structure state",
                })?,
            );
            let words = d.words()?;
            if words.len() != 20 {
                return Err(EcoError::Protocol {
                    what: "malformed campaign grader state",
                });
            }
            grader_words.push(words);
        }
        let n_records = d.len()?;
        let mut records = Vec::with_capacity(n_records);
        for _ in 0..n_records {
            let epoch = d.u64()?;
            let day = d.u64()?;
            let fleet_digest = d.u64()?;
            let n = d.len()?;
            let mut walls = Vec::with_capacity(n);
            for _ in 0..n {
                let name = d.string()?;
                let result_digest = d.u64()?;
                let mut feature_words = [0u64; 7];
                for word in &mut feature_words {
                    *word = d.u64()?;
                }
                let features =
                    WallFeatures::decode_words(&feature_words).ok_or(EcoError::Protocol {
                        what: "malformed campaign feature words",
                    })?;
                let score = f64::from_bits(d.u64()?);
                let grade = health_from_tag(d.u64()?).ok_or(EcoError::Protocol {
                    what: "unknown campaign health grade tag",
                })?;
                walls.push(WallEpoch {
                    name,
                    result_digest,
                    features,
                    score,
                    grade,
                });
            }
            records.push(EpochRecord {
                epoch,
                day,
                fleet_digest,
                walls,
            });
        }
        let n_detections = d.len()?;
        let mut detections = Vec::with_capacity(n_detections);
        for _ in 0..n_detections {
            let wall = d.string()?;
            let epoch = d.u64()?;
            let day = d.u64()?;
            let feature = feature_from_tag(d.u64()?).ok_or(EcoError::Protocol {
                what: "unknown campaign detection feature tag",
            })?;
            let score = f64::from_bits(d.u64()?);
            detections.push(DetectionEvent {
                wall,
                epoch,
                day,
                feature,
                score,
            });
        }
        d.finish()?;
        Ok(CampaignCheckpoint {
            config_digest,
            epochs_run,
            states,
            grader_words,
            records,
            detections,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::DamageScenario;
    use fleet::WallSpec;

    fn campaign_after(epochs: u64) -> Campaign {
        let specs = vec![
            CampaignWallSpec::new(
                WallSpec::new("w0", vec![0.5]).seed(5),
                DamageScenario::quiet(),
            ),
            CampaignWallSpec::new(WallSpec::new("w1", vec![]), DamageScenario::frozen()),
        ];
        let options = CampaignOptions::new().epochs(4).seed(21);
        let mut campaign = Campaign::new(specs, options).unwrap();
        for _ in 0..epochs {
            campaign.run_epoch().unwrap();
        }
        campaign
    }

    fn specs_and_options() -> (Vec<CampaignWallSpec>, CampaignOptions) {
        let specs = vec![
            CampaignWallSpec::new(
                WallSpec::new("w0", vec![0.5]).seed(5),
                DamageScenario::quiet(),
            ),
            CampaignWallSpec::new(WallSpec::new("w1", vec![]), DamageScenario::frozen()),
        ];
        (specs, CampaignOptions::new().epochs(4).seed(21))
    }

    #[test]
    fn bytes_round_trip() {
        let checkpoint = CampaignCheckpoint::of(&campaign_after(2));
        let bytes = checkpoint.to_bytes();
        assert_eq!(CampaignCheckpoint::from_bytes(&bytes).unwrap(), checkpoint);
    }

    #[test]
    fn resume_continues_bit_identically() {
        let full = campaign_after(4).partial_report();
        let checkpoint = CampaignCheckpoint::of(&campaign_after(2));
        let bytes = checkpoint.to_bytes();
        let restored = CampaignCheckpoint::from_bytes(&bytes).unwrap();
        let (specs, options) = specs_and_options();
        let resumed = restored.resume(specs, options).unwrap();
        assert_eq!(resumed.epochs_run(), 2);
        let report = resumed.run_to_completion().unwrap();
        assert_eq!(report.digest(), full.digest());
        assert_eq!(report.trace_jsonl(), full.trace_jsonl());
    }

    #[test]
    fn resume_rejects_a_different_config() {
        let checkpoint = CampaignCheckpoint::of(&campaign_after(1));
        let (specs, options) = specs_and_options();
        assert!(checkpoint
            .resume(specs.clone(), options.clone().seed(99))
            .is_err());
        let mut renamed = specs.clone();
        renamed[0].base.name = "other".into();
        assert!(checkpoint.resume(renamed, options.clone()).is_err());
        let mut rescripted = specs;
        rescripted[0].scenario = DamageScenario::crack_onset(1);
        assert!(checkpoint.resume(rescripted, options).is_err());
    }

    #[test]
    fn every_truncation_errors_never_panics() {
        let bytes = CampaignCheckpoint::of(&campaign_after(2)).to_bytes();
        for n in 0..bytes.len() {
            assert!(
                CampaignCheckpoint::from_bytes(&bytes[..n]).is_err(),
                "truncation at {n} must error"
            );
        }
    }

    #[test]
    fn every_bit_flip_is_detected() {
        let bytes = CampaignCheckpoint::of(&campaign_after(2)).to_bytes();
        // The trailing checksum catches any single-bit corruption.
        for at in (0..bytes.len()).step_by(7) {
            for bit in 0..8 {
                let mut evil = bytes.clone();
                evil[at] ^= 1 << bit;
                assert!(
                    CampaignCheckpoint::from_bytes(&evil).is_err(),
                    "bit flip at byte {at} bit {bit} must error"
                );
            }
        }
    }

    #[test]
    fn forged_checksums_still_cannot_panic_the_decoder() {
        let bytes = CampaignCheckpoint::of(&campaign_after(1)).to_bytes();
        // Flip a state byte AND re-forge the trailing checksum so the
        // decoder runs on corrupt fields; it must error or produce a
        // checkpoint whose resume fails validation — never panic.
        for at in (8..bytes.len() - 8).step_by(11) {
            let mut evil = bytes.clone();
            evil[at] ^= 0x40;
            let n = evil.len();
            let sum = faults::fnv1a64_bytes(&evil[..n - 8]).to_le_bytes();
            evil[n - 8..].copy_from_slice(&sum);
            let (specs, options) = specs_and_options();
            match CampaignCheckpoint::from_bytes(&evil) {
                Err(_) => {}
                Ok(decoded) => {
                    // Decoded but corrupt: resume must either reject it
                    // or still yield a structurally valid campaign.
                    if let Ok(campaign) = decoded.resume(specs, options) {
                        for state in campaign.states() {
                            state.validate().unwrap();
                        }
                    }
                }
            }
        }
    }
}
