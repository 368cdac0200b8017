//! The length-prefixed query protocol the daemon speaks on TCP.
//!
//! Framing (all integers little-endian):
//!
//! ```text
//! magic   "ECSV"                 4 bytes
//! version                        u32   (currently 1)
//! length                         u32   payload bytes, ≤ MAX_FRAME_BYTES
//! payload                        `length` bytes
//! checksum                       u64   FNV-1a over magic..payload
//! ```
//!
//! Payloads are sequences of little-endian `u64` words (strings travel
//! as a byte length followed by raw UTF-8, floats as `f64::to_bits`),
//! decoded by the shared [`faults::codec`] decoder the ECOFLEET /
//! ECOCAMPN checkpoints use: every length is checked against the bytes
//! actually present before any allocation, every tag must round-trip,
//! and trailing bytes are rejected — hostile input can only ever
//! produce an [`EcoError`], never a panic or an over-allocation
//! (`tests/tests/wire_hostile.rs` sweeps truncations, bit flips and
//! forged lengths).
//!
//! The same [`Request`]/[`Response`] encoding is used in-process by the
//! differential tests, so "what a client would see" is a pure function
//! of a [`crate::store::StoreSnapshot`] — byte-comparable across
//! restarts and worker counts.

use dsp::{EcoError, EcoResult};
use faults::codec::{checked_body, put_checksum, put_str, put_u64, put_words, Dec};
use faults::fnv1a64_bytes;
use std::io::{Read, Write};

use campaign::{health_from_tag, health_tag};

use crate::store::{FeatureRow, WallSummary};

/// Frame magic: the first four bytes of every request and response.
pub const WIRE_MAGIC: &[u8; 4] = b"ECSV";

/// Protocol version this build speaks; a frame with any other version
/// is rejected before its payload is read.
pub const WIRE_VERSION: u32 = 1;

/// Hard cap on a frame payload. A hostile length field beyond this is
/// rejected *before* any buffer is allocated, so a 4 GiB length prefix
/// costs the daemon twelve header bytes, not its heap.
pub const MAX_FRAME_BYTES: u32 = 1 << 20;

/// Everything a client can ask the daemon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// The newest graded feature row of one wall.
    LatestHealth {
        /// Wall name.
        wall: String,
    },
    /// The retained feature rows of one wall with `from_cycle <= cycle
    /// <= to_cycle` (clamped to the ring buffer's history).
    FeatureSeries {
        /// Wall name.
        wall: String,
        /// First cycle of interest (inclusive).
        from_cycle: u64,
        /// Last cycle of interest (inclusive).
        to_cycle: u64,
    },
    /// One fleet-wide merged histogram by name.
    HistogramSnapshot {
        /// Histogram name as recorded by the survey engine (e.g.
        /// `node.cold_start_us`).
        name: String,
    },
    /// Cycle counter plus one summary line per wall.
    FleetSummary,
    /// Control verb: snapshot an ECOSERVE checkpoint at the next round
    /// boundary. Acked immediately; the daemon writes the bytes as soon
    /// as the survey loop reaches a safe boundary.
    CheckpointNow,
    /// Control verb: finish the current scheduling round, publish, and
    /// exit the survey loop.
    Shutdown,
}

/// Everything the daemon can answer.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The request could not be served (unknown wall, unknown
    /// histogram, malformed request).
    Error {
        /// Human-readable reason.
        what: String,
    },
    /// Answer to [`Request::LatestHealth`].
    Health {
        /// Wall name echoed back.
        wall: String,
        /// The newest graded row.
        row: FeatureRow,
    },
    /// Answer to [`Request::FeatureSeries`].
    Series {
        /// Wall name echoed back.
        wall: String,
        /// Retained rows in cycle order.
        rows: Vec<FeatureRow>,
    },
    /// Answer to [`Request::HistogramSnapshot`]: the histogram in
    /// [`obs::Histogram::encode_words`] form.
    HistogramWords {
        /// Histogram name echoed back.
        name: String,
        /// `Histogram::encode_words` payload.
        words: Vec<u64>,
    },
    /// Answer to [`Request::FleetSummary`].
    Summary {
        /// Survey cycles fully ingested so far.
        cycles_done: u64,
        /// One line per wall, in name order.
        walls: Vec<WallSummary>,
    },
    /// Answer to a control verb.
    Ack {
        /// The request tag being acknowledged.
        verb: u64,
        /// Survey cycles fully ingested when the verb was accepted.
        cycles_done: u64,
    },
}

const TAG_LATEST_HEALTH: u64 = 0;
const TAG_FEATURE_SERIES: u64 = 1;
const TAG_HISTOGRAM: u64 = 2;
const TAG_SUMMARY: u64 = 3;
const TAG_CHECKPOINT_NOW: u64 = 4;
const TAG_SHUTDOWN: u64 = 5;

impl Request {
    /// The request's wire tag (echoed in [`Response::Ack`]).
    #[must_use]
    pub fn tag(&self) -> u64 {
        match self {
            Request::LatestHealth { .. } => TAG_LATEST_HEALTH,
            Request::FeatureSeries { .. } => TAG_FEATURE_SERIES,
            Request::HistogramSnapshot { .. } => TAG_HISTOGRAM,
            Request::FleetSummary => TAG_SUMMARY,
            Request::CheckpointNow => TAG_CHECKPOINT_NOW,
            Request::Shutdown => TAG_SHUTDOWN,
        }
    }

    /// True for the verbs that steer the daemon rather than read the
    /// store.
    #[must_use]
    pub fn is_control(&self) -> bool {
        matches!(self, Request::CheckpointNow | Request::Shutdown)
    }
}

/// Encodes a request payload (the bytes between length and checksum).
#[must_use]
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    put_u64(&mut out, req.tag());
    match req {
        Request::LatestHealth { wall } => put_str(&mut out, wall),
        Request::FeatureSeries {
            wall,
            from_cycle,
            to_cycle,
        } => {
            put_str(&mut out, wall);
            put_u64(&mut out, *from_cycle);
            put_u64(&mut out, *to_cycle);
        }
        Request::HistogramSnapshot { name } => put_str(&mut out, name),
        Request::FleetSummary | Request::CheckpointNow | Request::Shutdown => {}
    }
    out
}

/// Decodes a request payload. Rejects unknown tags, malformed strings
/// and trailing bytes.
#[must_use]
pub fn decode_request(payload: &[u8]) -> EcoResult<Request> {
    let mut d = Dec::new(payload);
    let req = match d.u64()? {
        TAG_LATEST_HEALTH => Request::LatestHealth { wall: d.string()? },
        TAG_FEATURE_SERIES => Request::FeatureSeries {
            wall: d.string()?,
            from_cycle: d.u64()?,
            to_cycle: d.u64()?,
        },
        TAG_HISTOGRAM => Request::HistogramSnapshot { name: d.string()? },
        TAG_SUMMARY => Request::FleetSummary,
        TAG_CHECKPOINT_NOW => Request::CheckpointNow,
        TAG_SHUTDOWN => Request::Shutdown,
        _ => {
            return Err(EcoError::Protocol {
                what: "unknown request tag",
            })
        }
    };
    d.finish()?;
    Ok(req)
}

const RESP_ERROR: u64 = 0;
const RESP_HEALTH: u64 = 1;
const RESP_SERIES: u64 = 2;
const RESP_HISTOGRAM: u64 = 3;
const RESP_SUMMARY: u64 = 4;
const RESP_ACK: u64 = 5;

/// Encodes a response payload.
#[must_use]
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut out = Vec::new();
    match resp {
        Response::Error { what } => {
            put_u64(&mut out, RESP_ERROR);
            put_str(&mut out, what);
        }
        Response::Health { wall, row } => {
            put_u64(&mut out, RESP_HEALTH);
            put_str(&mut out, wall);
            put_row(&mut out, row);
        }
        Response::Series { wall, rows } => {
            put_u64(&mut out, RESP_SERIES);
            put_str(&mut out, wall);
            put_u64(&mut out, rows.len() as u64);
            for row in rows {
                put_row(&mut out, row);
            }
        }
        Response::HistogramWords { name, words } => {
            put_u64(&mut out, RESP_HISTOGRAM);
            put_str(&mut out, name);
            put_words(&mut out, words);
        }
        Response::Summary { cycles_done, walls } => {
            put_u64(&mut out, RESP_SUMMARY);
            put_u64(&mut out, *cycles_done);
            put_u64(&mut out, walls.len() as u64);
            for w in walls {
                put_str(&mut out, &w.name);
                put_u64(&mut out, w.cycle);
                put_u64(&mut out, health_tag(w.grade));
                put_u64(&mut out, w.score.to_bits());
                put_u64(&mut out, w.result_digest);
            }
        }
        Response::Ack { verb, cycles_done } => {
            put_u64(&mut out, RESP_ACK);
            put_u64(&mut out, *verb);
            put_u64(&mut out, *cycles_done);
        }
    }
    out
}

/// Decodes a response payload. Rejects unknown tags, malformed rows and
/// trailing bytes.
#[must_use]
pub fn decode_response(payload: &[u8]) -> EcoResult<Response> {
    let mut d = Dec::new(payload);
    let resp = match d.u64()? {
        RESP_ERROR => Response::Error { what: d.string()? },
        RESP_HEALTH => Response::Health {
            wall: d.string()?,
            row: row(&mut d)?,
        },
        RESP_SERIES => {
            let wall = d.string()?;
            let n = d.len()?;
            let mut rows = Vec::with_capacity(n.min(MAX_FRAME_BYTES as usize / ROW_WORDS / 8));
            for _ in 0..n {
                rows.push(row(&mut d)?);
            }
            Response::Series { wall, rows }
        }
        RESP_HISTOGRAM => {
            let name = d.string()?;
            let words = d.words()?;
            Response::HistogramWords { name, words }
        }
        RESP_SUMMARY => {
            let cycles_done = d.u64()?;
            let n = d.len()?;
            let mut walls = Vec::with_capacity(n.min(MAX_FRAME_BYTES as usize / 40));
            for _ in 0..n {
                let name = d.string()?;
                let cycle = d.u64()?;
                let grade = health_from_tag(d.u64()?).ok_or(EcoError::Protocol {
                    what: "unknown health tag in summary",
                })?;
                let score = f64::from_bits(d.u64()?);
                let result_digest = d.u64()?;
                walls.push(WallSummary {
                    name,
                    cycle,
                    grade,
                    score,
                    result_digest,
                });
            }
            Response::Summary { cycles_done, walls }
        }
        RESP_ACK => Response::Ack {
            verb: d.u64()?,
            cycles_done: d.u64()?,
        },
        _ => {
            return Err(EcoError::Protocol {
                what: "unknown response tag",
            })
        }
    };
    d.finish()?;
    Ok(resp)
}

/// `u64` words of one wire row.
const ROW_WORDS: usize = 11;

pub(crate) fn put_row(out: &mut Vec<u8>, row: &FeatureRow) {
    for w in row.encode_words() {
        put_u64(out, w);
    }
}

/// One [`ROW_WORDS`]-word row, validated by [`FeatureRow::decode_words`].
#[must_use]
pub(crate) fn row(d: &mut Dec<'_>) -> EcoResult<FeatureRow> {
    let mut words = [0u64; ROW_WORDS];
    for w in &mut words {
        *w = d.u64()?;
    }
    FeatureRow::decode_words(&words).ok_or(EcoError::Protocol {
        what: "malformed feature row on the wire",
    })
}

/// Builds a complete frame around `payload`: header, payload, checksum.
/// Errors if the payload exceeds [`MAX_FRAME_BYTES`].
#[must_use]
pub fn frame_bytes(payload: &[u8]) -> EcoResult<Vec<u8>> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&n| n <= MAX_FRAME_BYTES)
        .ok_or(EcoError::Protocol {
            what: "wire payload exceeds the frame cap",
        })?;
    let mut out = Vec::with_capacity(12 + payload.len() + 8);
    out.extend_from_slice(WIRE_MAGIC);
    out.extend_from_slice(&WIRE_VERSION.to_le_bytes());
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(payload);
    put_checksum(&mut out);
    Ok(out)
}

/// Validates a frame header — magic, version, and a length within
/// [`MAX_FRAME_BYTES`] — and returns the payload length it announces.
fn header_len(header: &[u8; 12]) -> EcoResult<usize> {
    if &header[0..4] != WIRE_MAGIC {
        return Err(EcoError::Protocol {
            what: "wire magic mismatch",
        });
    }
    let mut u32buf = [0u8; 4];
    u32buf.copy_from_slice(&header[4..8]);
    if u32::from_le_bytes(u32buf) != WIRE_VERSION {
        return Err(EcoError::Protocol {
            what: "unsupported wire version",
        });
    }
    u32buf.copy_from_slice(&header[8..12]);
    let len = u32::from_le_bytes(u32buf);
    if len > MAX_FRAME_BYTES {
        return Err(EcoError::Protocol {
            what: "wire length exceeds the frame cap",
        });
    }
    Ok(len as usize)
}

/// Parses a complete frame from a byte slice and returns its payload.
/// Rejects a bad magic/version, a length that disagrees with the bytes
/// present, a failed checksum, and trailing bytes.
#[must_use]
pub fn unframe_bytes(frame: &[u8]) -> EcoResult<Vec<u8>> {
    let header = match frame.first_chunk::<12>() {
        Some(header) if frame.len() >= 12 + 8 => header,
        _ => {
            return Err(EcoError::Protocol {
                what: "wire frame truncated",
            })
        }
    };
    let len = header_len(header)?;
    if frame.len() != 12 + len + 8 {
        return Err(EcoError::Protocol {
            what: "wire length disagrees with the frame",
        });
    }
    Ok(checked_body(frame)?[12..].to_vec())
}

/// Writes one frame to a stream.
#[must_use]
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> EcoResult<()> {
    let frame = frame_bytes(payload)?;
    w.write_all(&frame).map_err(|_| EcoError::Protocol {
        what: "wire write failed",
    })?;
    w.flush().map_err(|_| EcoError::Protocol {
        what: "wire flush failed",
    })
}

/// Reads one frame from a stream and returns its payload. The length
/// field is validated against [`MAX_FRAME_BYTES`] *before* the payload
/// buffer is allocated.
#[must_use]
pub fn read_frame<R: Read>(r: &mut R) -> EcoResult<Vec<u8>> {
    let mut header = [0u8; 12];
    read_exact(r, &mut header)?;
    let mut payload = vec![0u8; header_len(&header)?];
    read_exact(r, &mut payload)?;
    let mut trailer = [0u8; 8];
    read_exact(r, &mut trailer)?;
    if u64::from_le_bytes(trailer) != fnv1a64_bytes(header.iter().chain(&payload)) {
        return Err(EcoError::Protocol {
            what: "wire checksum mismatch",
        });
    }
    Ok(payload)
}

fn read_exact<R: Read>(r: &mut R, buf: &mut [u8]) -> EcoResult<()> {
    r.read_exact(buf).map_err(|_| EcoError::Protocol {
        what: "wire frame truncated",
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use shm::health::HealthLevel;
    use std::io::Cursor;

    fn row(cycle: u64) -> FeatureRow {
        FeatureRow {
            cycle,
            features: Default::default(),
            score: 1.5,
            grade: HealthLevel::A,
            result_digest: 0xabcd,
        }
    }

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::LatestHealth {
                wall: "north".into(),
            },
            Request::FeatureSeries {
                wall: "north".into(),
                from_cycle: 2,
                to_cycle: 9,
            },
            Request::HistogramSnapshot {
                name: "node.cold_start_us".into(),
            },
            Request::FleetSummary,
            Request::CheckpointNow,
            Request::Shutdown,
        ]
    }

    fn sample_responses() -> Vec<Response> {
        vec![
            Response::Error {
                what: "unknown wall".into(),
            },
            Response::Health {
                wall: "north".into(),
                row: row(4),
            },
            Response::Series {
                wall: "north".into(),
                rows: vec![row(1), row(2)],
            },
            Response::HistogramWords {
                name: "h".into(),
                words: vec![1, 2, 3],
            },
            Response::Summary {
                cycles_done: 7,
                walls: vec![WallSummary {
                    name: "north".into(),
                    cycle: 6,
                    grade: HealthLevel::B,
                    score: 2.5,
                    result_digest: 9,
                }],
            },
            Response::Ack {
                verb: TAG_SHUTDOWN,
                cycles_done: 7,
            },
        ]
    }

    #[test]
    fn requests_round_trip() {
        for req in sample_requests() {
            let payload = encode_request(&req);
            assert_eq!(decode_request(&payload).unwrap(), req, "{req:?}");
        }
    }

    #[test]
    fn responses_round_trip() {
        for resp in sample_responses() {
            let payload = encode_response(&resp);
            assert_eq!(decode_response(&payload).unwrap(), resp, "{resp:?}");
        }
    }

    #[test]
    fn frames_round_trip_via_streams() {
        let payload = encode_request(&Request::FleetSummary);
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        let mut cursor = Cursor::new(buf.clone());
        assert_eq!(read_frame(&mut cursor).unwrap(), payload);
        assert_eq!(unframe_bytes(&buf).unwrap(), payload);
    }

    #[test]
    fn oversized_payload_is_refused_at_encode_time() {
        let huge = vec![0u8; MAX_FRAME_BYTES as usize + 1];
        assert!(frame_bytes(&huge).is_err());
    }

    #[test]
    fn hostile_length_is_refused_before_allocation() {
        let mut frame = Vec::new();
        frame.extend_from_slice(WIRE_MAGIC);
        frame.extend_from_slice(&WIRE_VERSION.to_le_bytes());
        frame.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut cursor = Cursor::new(frame);
        assert!(read_frame(&mut cursor).is_err());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut payload = encode_request(&Request::FleetSummary);
        payload.push(0);
        assert!(decode_request(&payload).is_err());
    }
}
