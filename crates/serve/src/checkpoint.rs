//! ECOSERVE: the service's versioned checkpoint format.
//!
//! Layout (all integers little-endian `u64` unless noted):
//!
//! ```text
//! magic          "ECOSERVE"                         8 bytes
//! version        u64   (currently 1)
//! config_digest  u64   [`crate::config_digest`] of specs + options
//! cycles_done    u64
//! wall_count     u64
//!   per wall (name order):
//!     name          byte length + raw UTF-8
//!     grader_words  word count + `WallGrader::encode_words`
//!     row_count     u64
//!     rows          row_count × 11 words ([`FeatureRow::encode_words`])
//! hist_count     u64
//!   per histogram (name order):
//!     name          byte length + raw UTF-8
//!     words         word count + `Histogram::encode_words`
//! fleet_tag      u64   0 = cycle boundary, 1 = mid-cycle
//!   if 1: fleet_len u64 + embedded ECOFLEET bytes
//! checksum       u64   FNV-1a over every previous byte
//! ```
//!
//! The embedded ECOFLEET bytes are the in-flight cycle's
//! [`fleet::FleetCheckpoint`], so a daemon killed mid-cycle resumes the
//! partly-run fleet at the exact round boundary it left — the restart
//! differential proves query answers stay byte-identical. Encoding and
//! decoding go through the shared [`faults::codec`], like ECOFLEET and
//! ECOCAMPN: checksum first, every length bounded by the bytes
//! remaining, trailing bytes rejected.

use campaign::{CampaignGrader, WallGrader};
use dsp::{EcoError, EcoResult};
use faults::codec::{checked_body, put_checksum, put_str, put_u64, put_words, Dec};
use fleet::{Fleet, FleetCheckpoint, WallSpec};
use obs::Histogram;

use crate::engine::{cycle_specs, ServeEngine};
use crate::options::{config_digest, ServeOptions};
use crate::store::{FeatureRow, StoreSnapshot};
use crate::wire::{put_row, row};

const MAGIC: &[u8; 8] = b"ECOSERVE";
const VERSION: u64 = 1;

/// One wall's checkpointed state: its grader words and retained rows.
#[derive(Debug, Clone, PartialEq)]
struct WallState {
    name: String,
    grader_words: Vec<u64>,
    rows: Vec<FeatureRow>,
}

/// A frozen service: everything needed to resume the survey loop and
/// answer queries exactly as the uninterrupted run would.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeCheckpoint {
    /// [`crate::config_digest`] of the configuration the checkpoint was
    /// taken under; resume refuses a mismatch.
    pub config_digest: u64,
    /// Survey cycles fully ingested when the checkpoint was taken.
    pub cycles_done: u64,
    walls: Vec<WallState>,
    histograms: Vec<(String, Vec<u64>)>,
    fleet: Option<Vec<u8>>,
}

impl ServeCheckpoint {
    /// Freezes an engine at the current round boundary. Mid-cycle the
    /// in-flight fleet's ECOFLEET bytes are embedded.
    #[must_use]
    pub fn of(engine: &ServeEngine) -> EcoResult<ServeCheckpoint> {
        let graders = engine.grader().graders();
        let walls = engine
            .store()
            .walls()
            .map(|(name, series)| {
                let grader = graders.get(name).ok_or(EcoError::Protocol {
                    what: "serve checkpoint found a wall without a grader",
                })?;
                Ok(WallState {
                    name: name.clone(),
                    grader_words: grader.encode_words(),
                    rows: series.rows().copied().collect(),
                })
            })
            .collect::<EcoResult<Vec<WallState>>>()?;
        let histograms = engine
            .store()
            .histograms()
            .map(|(name, h)| (name.clone(), h.encode_words()))
            .collect();
        let fleet = match engine.fleet() {
            Some(fleet) => Some(fleet.checkpoint()?.to_bytes()),
            None => None,
        };
        Ok(ServeCheckpoint {
            config_digest: engine.config_digest(),
            cycles_done: engine.cycles_done(),
            walls,
            histograms,
            fleet,
        })
    }

    /// True when the checkpoint was taken mid-cycle (it embeds an
    /// in-flight fleet).
    #[must_use]
    pub fn is_mid_cycle(&self) -> bool {
        self.fleet.is_some()
    }

    /// Serializes to the versioned byte format.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        put_u64(&mut out, VERSION);
        put_u64(&mut out, self.config_digest);
        put_u64(&mut out, self.cycles_done);
        put_u64(&mut out, self.walls.len() as u64);
        for wall in &self.walls {
            put_str(&mut out, &wall.name);
            put_words(&mut out, &wall.grader_words);
            put_u64(&mut out, wall.rows.len() as u64);
            for row in &wall.rows {
                put_row(&mut out, row);
            }
        }
        put_u64(&mut out, self.histograms.len() as u64);
        for (name, words) in &self.histograms {
            put_str(&mut out, name);
            put_words(&mut out, words);
        }
        match &self.fleet {
            None => put_u64(&mut out, 0),
            Some(bytes) => {
                put_u64(&mut out, 1);
                put_u64(&mut out, bytes.len() as u64);
                out.extend_from_slice(bytes);
            }
        }
        put_checksum(&mut out);
        out
    }

    /// Parses the versioned byte format. Hostile input — truncations,
    /// bit flips, forged lengths — can only produce an error, never a
    /// panic or an over-allocation.
    #[must_use]
    pub fn from_bytes(bytes: &[u8]) -> EcoResult<ServeCheckpoint> {
        let mut d = Dec::new(checked_body(bytes)?);
        if d.take(MAGIC.len())? != MAGIC {
            return Err(EcoError::Protocol {
                what: "serve checkpoint magic mismatch",
            });
        }
        if d.u64()? != VERSION {
            return Err(EcoError::Protocol {
                what: "unsupported serve checkpoint version",
            });
        }
        let config_digest = d.u64()?;
        let cycles_done = d.u64()?;
        let wall_count = d.len()?;
        let mut walls = Vec::with_capacity(wall_count);
        for _ in 0..wall_count {
            let name = d.string()?;
            let grader_words = d.words()?;
            let row_count = d.len()?;
            let mut rows = Vec::with_capacity(row_count);
            for _ in 0..row_count {
                rows.push(row(&mut d)?);
            }
            walls.push(WallState {
                name,
                grader_words,
                rows,
            });
        }
        let hist_count = d.len()?;
        let mut histograms = Vec::with_capacity(hist_count);
        for _ in 0..hist_count {
            let name = d.string()?;
            histograms.push((name, d.words()?));
        }
        let fleet = match d.u64()? {
            0 => None,
            1 => {
                let n = d.len()?;
                Some(d.take(n)?.to_vec())
            }
            _ => {
                return Err(EcoError::Protocol {
                    what: "serve checkpoint fleet tag out of range",
                })
            }
        };
        d.finish()?;
        Ok(ServeCheckpoint {
            config_digest,
            cycles_done,
            walls,
            histograms,
            fleet,
        })
    }

    /// Rebuilds the engine. The offered `specs` and `options` must
    /// digest-match the configuration the checkpoint was taken under
    /// (the fleet pool is free to differ — the store is
    /// worker-count-invariant).
    #[must_use]
    pub fn resume(&self, specs: Vec<WallSpec>, options: ServeOptions) -> EcoResult<ServeEngine> {
        let options = options.build()?;
        if self.config_digest != config_digest(&specs, &options) {
            return Err(EcoError::Protocol {
                what: "serve checkpoint config digest mismatch",
            });
        }
        if self.walls.len() != specs.len() {
            return Err(EcoError::Protocol {
                what: "serve checkpoint wall count mismatch",
            });
        }
        let names: Vec<String> = specs.iter().map(|s| s.name.clone()).collect();
        let mut grader = CampaignGrader::new(options.grading, &names)?;
        let mut store = StoreSnapshot::new(&names, options.history_cycles as usize);
        for wall in &self.walls {
            let restored = WallGrader::decode_words(options.grading, &wall.grader_words).ok_or(
                EcoError::Protocol {
                    what: "serve checkpoint grader words malformed",
                },
            )?;
            grader.restore(&wall.name, restored)?;
            for row in &wall.rows {
                store.ingest_wall(&wall.name, *row, &[])?;
            }
        }
        for (name, words) in &self.histograms {
            let histogram = Histogram::decode_words(words).ok_or(EcoError::Protocol {
                what: "serve checkpoint histogram words malformed",
            })?;
            store.restore_histogram(name.clone(), histogram);
        }
        store.set_cycles_done(self.cycles_done);
        let fleet = match &self.fleet {
            None => None,
            Some(bytes) => {
                let inner = FleetCheckpoint::from_bytes(bytes)?;
                Some(Fleet::resume(
                    cycle_specs(&specs, &options, self.cycles_done),
                    &options.fleet,
                    &inner,
                )?)
            }
        };
        Ok(ServeEngine::restore(specs, options, grader, store, fleet))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn specs() -> Vec<WallSpec> {
        vec![
            WallSpec::new("live", vec![0.5]).seed(7),
            WallSpec::new("bare", vec![]).seed(8),
        ]
    }

    fn options() -> ServeOptions {
        ServeOptions::new().seed(5).cycle_limit(3).history_cycles(4)
    }

    #[test]
    fn boundary_checkpoints_round_trip_and_resume_identically() {
        let mut baseline = ServeEngine::new(specs(), options()).unwrap();
        baseline.run_to_limit().unwrap();

        let mut engine = ServeEngine::new(specs(), options()).unwrap();
        engine.run_cycle().unwrap();
        let checkpoint = ServeCheckpoint::of(&engine).unwrap();
        assert!(!checkpoint.is_mid_cycle());
        let bytes = checkpoint.to_bytes();
        let parsed = ServeCheckpoint::from_bytes(&bytes).unwrap();
        assert_eq!(parsed, checkpoint);
        let mut resumed = parsed.resume(specs(), options()).unwrap();
        assert_eq!(resumed.digest(), engine.digest());
        resumed.run_to_limit().unwrap();
        assert_eq!(resumed.digest(), baseline.digest());
    }

    #[test]
    fn mid_cycle_checkpoints_embed_the_fleet_and_resume_identically() {
        // A tight slot budget spreads each cycle across many scheduling
        // rounds, so the first tick of a cycle cannot finish it.
        let tight = || {
            options().fleet(
                fleet::FleetOptions::new()
                    .quantum_slots(3)
                    .round_budget_slots(7),
            )
        };
        let mut baseline = ServeEngine::new(specs(), tight()).unwrap();
        baseline.run_to_limit().unwrap();

        let mut engine = ServeEngine::new(specs(), tight()).unwrap();
        engine.run_cycle().unwrap();
        // Step into the next cycle without finishing it.
        let done = engine.tick().unwrap();
        assert!(!done, "first round should not finish the cycle");
        let checkpoint = ServeCheckpoint::of(&engine).unwrap();
        assert!(checkpoint.is_mid_cycle());
        let parsed = ServeCheckpoint::from_bytes(&checkpoint.to_bytes()).unwrap();
        let mut resumed = parsed.resume(specs(), tight()).unwrap();
        resumed.run_to_limit().unwrap();
        assert_eq!(resumed.digest(), baseline.digest());
    }

    #[test]
    fn resume_rejects_a_mismatched_config() {
        let engine = ServeEngine::new(specs(), options()).unwrap();
        let checkpoint = ServeCheckpoint::of(&engine).unwrap();
        assert!(checkpoint.resume(specs(), options().seed(6)).is_err());
        let mut reseeded = specs();
        reseeded[0].seed += 1;
        assert!(checkpoint.resume(reseeded, options()).is_err());
    }

    #[test]
    fn hostile_bytes_only_ever_error() {
        let mut engine = ServeEngine::new(specs(), options()).unwrap();
        engine.run_cycle().unwrap();
        let bytes = ServeCheckpoint::of(&engine).unwrap().to_bytes();
        assert!(ServeCheckpoint::from_bytes(&[]).is_err());
        for end in 0..bytes.len() {
            assert!(ServeCheckpoint::from_bytes(&bytes[..end]).is_err());
        }
        for at in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[at] ^= 1;
            assert!(
                ServeCheckpoint::from_bytes(&flipped).is_err(),
                "bit flip at byte {at} must not parse"
            );
        }
    }
}
