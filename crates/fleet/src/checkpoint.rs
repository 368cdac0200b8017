//! Versioned checkpoint/resume byte format for a fleet run.
//!
//! A checkpoint freezes everything dynamic about a [`crate::Fleet`] at a
//! round boundary — scheduler credits/ages/queue, the grant log, and the
//! results of every wall already surveyed — plus a digest of the static
//! configuration (specs and budget) so a resume against the wrong fleet
//! is rejected instead of silently diverging.
//!
//! Wire format (all integers little-endian `u64`):
//!
//! ```text
//! magic  "ECOFLEET"              8 bytes
//! version                        u64   (currently 1)
//! config_digest                  u64   FNV-1a over specs + budget
//! round                          u64
//! n_walls                        u64
//! per wall:
//!   tag                          u64   0 = pending, 1 = done
//!   pending: credit, age
//!   done:    round_completed, granted_slots,
//!            report   (powered, inventoried, readings, outcomes —
//!                      each length-prefixed),
//!            counters (len, then (name, total)),
//!            histograms (len, then (name, encode_words)),
//!            trace    (string)
//! queue    (len, then indices, front first)
//! grants   (len, then (round, wall, slots))
//! ```
//!
//! Strings are a byte length followed by the raw bytes. Floats travel as
//! `f64::to_bits`, so a decode→re-encode round trip is byte-identical
//! and a resumed run replays bit-for-bit. The words are written and
//! bounds-checked by the shared [`faults::codec`].

use dsp::{EcoError, EcoResult};
use ecocapsule::scenario::{CapsuleOutcome, SurveyReport};
use faults::codec::{put_str, put_u64, put_words, Dec};
use obs::Histogram;
use protocol::frame::SensorKind;

use crate::report::WallResult;
use crate::scheduler::Grant;

const MAGIC: &[u8; 8] = b"ECOFLEET";

/// Checkpoint format version this build reads and writes.
pub const CHECKPOINT_VERSION: u64 = 1;

/// A frozen fleet state: everything needed to resume a run at a round
/// boundary and finish with a bit-identical [`crate::FleetReport`].
///
/// Produced by [`crate::Fleet::checkpoint`], consumed by
/// [`crate::Fleet::resume`]; travels as bytes via
/// [`FleetCheckpoint::to_bytes`] / [`FleetCheckpoint::from_bytes`].
#[derive(Debug, Clone, PartialEq)]
pub struct FleetCheckpoint {
    pub(crate) config_digest: u64,
    pub(crate) round: u64,
    pub(crate) walls: Vec<WallEntry>,
    pub(crate) queue: Vec<usize>,
    pub(crate) grants: Vec<Grant>,
}

/// One wall's dynamic state inside a checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum WallEntry {
    /// Not yet surveyed: accumulated scheduler credit and age.
    Pending {
        /// Slots granted so far.
        credit_slots: u64,
        /// Consecutive grantless rounds.
        age_rounds: u32,
    },
    /// Surveyed: the frozen result.
    Done(WallResult),
}

impl FleetCheckpoint {
    /// The configuration digest this checkpoint was taken under; a
    /// resume recomputes it from the offered specs and refuses a
    /// mismatch.
    #[must_use]
    pub fn config_digest(&self) -> u64 {
        self.config_digest
    }

    /// Scheduling rounds completed when the checkpoint was taken.
    #[must_use]
    pub fn round(&self) -> u64 {
        self.round
    }

    /// How many walls had already completed their survey.
    #[must_use]
    pub fn walls_done(&self) -> usize {
        self.walls
            .iter()
            .filter(|w| matches!(w, WallEntry::Done(_)))
            .count()
    }

    /// Serializes to the versioned byte format.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        put_u64(&mut out, CHECKPOINT_VERSION);
        put_u64(&mut out, self.config_digest);
        put_u64(&mut out, self.round);
        put_u64(&mut out, self.walls.len() as u64);
        for wall in &self.walls {
            match wall {
                WallEntry::Pending {
                    credit_slots,
                    age_rounds,
                } => {
                    put_u64(&mut out, 0);
                    put_u64(&mut out, *credit_slots);
                    put_u64(&mut out, u64::from(*age_rounds));
                }
                WallEntry::Done(r) => {
                    put_u64(&mut out, 1);
                    put_str(&mut out, &r.name);
                    put_u64(&mut out, r.round_completed);
                    put_u64(&mut out, r.granted_slots);
                    put_report(&mut out, &r.report);
                    put_u64(&mut out, r.counters.len() as u64);
                    for (name, total) in &r.counters {
                        put_str(&mut out, name);
                        put_u64(&mut out, *total);
                    }
                    put_u64(&mut out, r.histograms.len() as u64);
                    for (name, h) in &r.histograms {
                        put_str(&mut out, name);
                        put_words(&mut out, &h.encode_words());
                    }
                    put_str(&mut out, &r.trace_jsonl);
                }
            }
        }
        put_u64(&mut out, self.queue.len() as u64);
        for &i in &self.queue {
            put_u64(&mut out, i as u64);
        }
        put_u64(&mut out, self.grants.len() as u64);
        for g in &self.grants {
            put_u64(&mut out, g.round);
            put_u64(&mut out, g.wall as u64);
            put_u64(&mut out, g.slots);
        }
        out
    }

    /// Parses the versioned byte format. Rejects a bad magic, an
    /// unknown version, malformed structure, or trailing bytes with
    /// [`EcoError::Protocol`].
    #[must_use]
    pub fn from_bytes(bytes: &[u8]) -> EcoResult<FleetCheckpoint> {
        let mut d = Dec::new(bytes);
        let magic = d.take(8)?;
        if magic != MAGIC {
            return Err(EcoError::Protocol {
                what: "fleet checkpoint magic mismatch",
            });
        }
        let version = d.u64()?;
        if version != CHECKPOINT_VERSION {
            return Err(EcoError::Protocol {
                what: "unsupported fleet checkpoint version",
            });
        }
        let config_digest = d.u64()?;
        let round = d.u64()?;
        let n_walls = d.len()?;
        let mut walls = Vec::with_capacity(n_walls);
        for _ in 0..n_walls {
            walls.push(match d.u64()? {
                0 => WallEntry::Pending {
                    credit_slots: d.u64()?,
                    age_rounds: d.u32()?,
                },
                1 => {
                    let name = d.string()?;
                    let round_completed = d.u64()?;
                    let granted_slots = d.u64()?;
                    let report = report(&mut d)?;
                    let mut counters = Vec::new();
                    for _ in 0..d.len()? {
                        let name = d.string()?;
                        counters.push((name, d.u64()?));
                    }
                    let mut histograms = Vec::new();
                    for _ in 0..d.len()? {
                        let name = d.string()?;
                        let h = Histogram::decode_words(&d.words()?).ok_or(EcoError::Protocol {
                            what: "malformed histogram words in fleet checkpoint",
                        })?;
                        histograms.push((name, h));
                    }
                    WallEntry::Done(WallResult {
                        name,
                        round_completed,
                        granted_slots,
                        report,
                        counters,
                        histograms,
                        trace_jsonl: d.string()?,
                    })
                }
                _ => {
                    return Err(EcoError::Protocol {
                        what: "unknown wall entry tag in fleet checkpoint",
                    })
                }
            });
        }
        let mut queue = Vec::new();
        for _ in 0..d.len()? {
            queue.push(wall_index(&mut d, n_walls)?);
        }
        let mut grants = Vec::new();
        for _ in 0..d.len()? {
            grants.push(Grant {
                round: d.u64()?,
                wall: wall_index(&mut d, n_walls)?,
                slots: d.u64()?,
            });
        }
        d.finish()?;
        Ok(FleetCheckpoint {
            config_digest,
            round,
            walls,
            queue,
            grants,
        })
    }
}

/// A wall index (queue entry or grant target), which must name one of
/// the checkpoint's `n_walls` walls.
fn wall_index(d: &mut Dec<'_>, n_walls: usize) -> EcoResult<usize> {
    usize::try_from(d.u64()?)
        .ok()
        .filter(|&i| i < n_walls)
        .ok_or(EcoError::Protocol {
            what: "wall index out of range in fleet checkpoint",
        })
}

fn put_report(out: &mut Vec<u8>, r: &SurveyReport) {
    put_u64(out, r.powered_ids.len() as u64);
    for &id in &r.powered_ids {
        put_u64(out, u64::from(id));
    }
    put_u64(out, r.inventoried_ids.len() as u64);
    for &id in &r.inventoried_ids {
        put_u64(out, u64::from(id));
    }
    put_u64(out, r.readings.len() as u64);
    for &(id, kind, value) in &r.readings {
        put_u64(out, u64::from(id));
        put_u64(out, sensor_kind_tag(kind));
        put_u64(out, value.to_bits());
    }
    put_u64(out, r.outcomes.len() as u64);
    for &(id, outcome) in &r.outcomes {
        put_u64(out, u64::from(id));
        let (tag, payload) = outcome_wire(outcome);
        put_u64(out, tag);
        put_u64(out, payload);
    }
}

/// Explicit wire tags for [`SensorKind`] — decoupled from the enum's
/// discriminants so reordering variants can never silently change the
/// format.
fn sensor_kind_tag(kind: SensorKind) -> u64 {
    match kind {
        SensorKind::Temperature => 0,
        SensorKind::Humidity => 1,
        SensorKind::Strain => 2,
        SensorKind::Acceleration => 3,
        SensorKind::Stress => 4,
    }
}

fn sensor_kind_from_tag(tag: u64) -> Option<SensorKind> {
    Some(match tag {
        0 => SensorKind::Temperature,
        1 => SensorKind::Humidity,
        2 => SensorKind::Strain,
        3 => SensorKind::Acceleration,
        4 => SensorKind::Stress,
        _ => return None,
    })
}

/// `(tag, payload)` wire form of an outcome; tags match
/// `CapsuleOutcome::digest_words` so the wire and the digest agree.
fn outcome_wire(outcome: CapsuleOutcome) -> (u64, u64) {
    match outcome {
        CapsuleOutcome::Read { readings } => (0, readings as u64),
        CapsuleOutcome::Unpowered => (1, 0),
        CapsuleOutcome::CollisionExhausted => (2, 0),
        CapsuleOutcome::DecodeFailed { attempts } => (3, u64::from(attempts)),
    }
}

fn outcome_from_wire(tag: u64, payload: u64) -> Option<CapsuleOutcome> {
    Some(match tag {
        0 => CapsuleOutcome::Read {
            readings: usize::try_from(payload).ok()?,
        },
        1 => CapsuleOutcome::Unpowered,
        2 => CapsuleOutcome::CollisionExhausted,
        3 => CapsuleOutcome::DecodeFailed {
            attempts: u32::try_from(payload).ok()?,
        },
        _ => return None,
    })
}

fn report(d: &mut Dec<'_>) -> EcoResult<SurveyReport> {
    let mut report = SurveyReport::default();
    for _ in 0..d.len()? {
        report.powered_ids.push(d.u32()?);
    }
    for _ in 0..d.len()? {
        report.inventoried_ids.push(d.u32()?);
    }
    for _ in 0..d.len()? {
        let id = d.u32()?;
        let kind = sensor_kind_from_tag(d.u64()?).ok_or(EcoError::Protocol {
            what: "unknown sensor kind tag in fleet checkpoint",
        })?;
        report.readings.push((id, kind, f64::from_bits(d.u64()?)));
    }
    for _ in 0..d.len()? {
        let id = d.u32()?;
        let tag = d.u64()?;
        let payload = d.u64()?;
        let outcome = outcome_from_wire(tag, payload).ok_or(EcoError::Protocol {
            what: "unknown capsule outcome tag in fleet checkpoint",
        })?;
        report.outcomes.push((id, outcome));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FleetCheckpoint {
        // Hand-built report exercising every wire branch (all four
        // outcome tags, a non-integral float) without the cost of a
        // real survey.
        let report = SurveyReport {
            powered_ids: vec![1000, 1001],
            inventoried_ids: vec![1001, 1000],
            readings: vec![
                (1000, SensorKind::Temperature, 25.3),
                (1000, SensorKind::Strain, -12.5),
                (1001, SensorKind::Stress, 0.1 + 0.2),
            ],
            outcomes: vec![
                (1000, CapsuleOutcome::Read { readings: 2 }),
                (1001, CapsuleOutcome::DecodeFailed { attempts: 7 }),
                (1002, CapsuleOutcome::Unpowered),
                (1003, CapsuleOutcome::CollisionExhausted),
            ],
        };
        let mut h = Histogram::new();
        h.record(0);
        h.record(17);
        h.record(1 << 40);
        let done = WallResult {
            name: "done-wall".into(),
            round_completed: 2,
            granted_slots: 40,
            report,
            counters: vec![("reads".into(), 6), ("retries".into(), 1)],
            histograms: vec![("latency_slots".into(), h)],
            trace_jsonl: "{\"ev\":\"survey\",\"slot\":0}\n".into(),
        };
        FleetCheckpoint {
            config_digest: 0xfeed_beef,
            round: 3,
            walls: vec![
                WallEntry::Pending {
                    credit_slots: 17,
                    age_rounds: 2,
                },
                WallEntry::Done(done),
            ],
            queue: vec![0],
            grants: vec![
                Grant {
                    round: 1,
                    wall: 0,
                    slots: 17,
                },
                Grant {
                    round: 2,
                    wall: 1,
                    slots: 40,
                },
            ],
        }
    }

    #[test]
    fn bytes_round_trip_exactly() {
        let cp = sample();
        let bytes = cp.to_bytes();
        let back = FleetCheckpoint::from_bytes(&bytes).expect("decode");
        assert_eq!(back, cp);
        assert_eq!(back.to_bytes(), bytes, "re-encode is byte-identical");
        assert_eq!(cp.walls_done(), 1);
    }

    #[test]
    fn corrupt_inputs_are_rejected() {
        let cp = sample();
        let good = cp.to_bytes();

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(FleetCheckpoint::from_bytes(&bad_magic).is_err());

        let mut bad_version = good.clone();
        bad_version[8] = 99;
        assert!(FleetCheckpoint::from_bytes(&bad_version).is_err());

        let truncated = &good[..good.len() - 1];
        assert!(FleetCheckpoint::from_bytes(truncated).is_err());

        let mut trailing = good.clone();
        trailing.push(0);
        assert!(FleetCheckpoint::from_bytes(&trailing).is_err());

        assert!(FleetCheckpoint::from_bytes(&[]).is_err());
    }

    #[test]
    fn hostile_lengths_cannot_allocate() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        put_u64(&mut bytes, CHECKPOINT_VERSION);
        put_u64(&mut bytes, 0); // config digest
        put_u64(&mut bytes, 0); // round
        put_u64(&mut bytes, u64::MAX); // absurd wall count
        assert!(FleetCheckpoint::from_bytes(&bytes).is_err());
    }

    #[test]
    fn wire_tags_cover_every_variant() {
        for tag in 0..5 {
            let kind = sensor_kind_from_tag(tag).expect("kind tag");
            assert_eq!(sensor_kind_tag(kind), tag);
        }
        assert!(sensor_kind_from_tag(5).is_none());
        for (outcome, want_tag) in [
            (CapsuleOutcome::Read { readings: 3 }, 0),
            (CapsuleOutcome::Unpowered, 1),
            (CapsuleOutcome::CollisionExhausted, 2),
            (CapsuleOutcome::DecodeFailed { attempts: 7 }, 3),
        ] {
            let (tag, payload) = outcome_wire(outcome);
            assert_eq!(tag, want_tag);
            assert_eq!(outcome_from_wire(tag, payload), Some(outcome));
        }
        assert!(outcome_from_wire(4, 0).is_none());
    }
}
