//! Hostile-input corpus for the ECSV wire protocol: every truncation,
//! a dense bit-flip sweep, oversized length fields, and garbage
//! prefixes against both the framing layer (`frame_bytes` /
//! `unframe_bytes` / `read_frame`) and the payload codecs
//! (`decode_request` / `decode_response`). The contract under attack is
//! the `no-panic-in-lib` invariant's network face — a hostile peer must
//! cost the daemon an error return, never a panic, never an oversized
//! allocation.

use serve::{
    decode_request, decode_response, encode_request, encode_response, frame_bytes, read_frame,
    unframe_bytes, FeatureRow, Request, Response, MAX_FRAME_BYTES, WIRE_MAGIC,
};

use campaign::WallFeatures;
use shm::health::HealthLevel;

fn sample_row(cycle: u64) -> FeatureRow {
    FeatureRow {
        cycle,
        features: WallFeatures {
            strain_mean: 104.25,
            temperature_mean_c: 21.5,
            humidity_mean: 0.55,
            powered_fraction: 0.75,
            read_fraction: 0.5,
            cold_start_mean_us: 1_800.0,
            readings: 6,
        },
        score: 3.5,
        grade: HealthLevel::B,
        result_digest: 0x1234_5678_9abc_def0,
    }
}

/// One of each request verb, so the sweeps cover every encoder branch.
fn all_requests() -> Vec<Request> {
    vec![
        Request::LatestHealth {
            wall: "tower-3".to_string(),
        },
        Request::FeatureSeries {
            wall: "footbridge-pilot".to_string(),
            from_cycle: 2,
            to_cycle: 9,
        },
        Request::HistogramSnapshot {
            name: "inventory.q".to_string(),
        },
        Request::FleetSummary,
        Request::CheckpointNow,
        Request::Shutdown,
    ]
}

/// One of each response shape, including the error carrier.
fn all_responses() -> Vec<Response> {
    vec![
        Response::Error {
            what: "unknown wall".to_string(),
        },
        Response::Health {
            wall: "tower-3".to_string(),
            row: sample_row(4),
        },
        Response::Series {
            wall: "tower-3".to_string(),
            rows: vec![sample_row(3), sample_row(4)],
        },
        Response::HistogramWords {
            name: "inventory.q".to_string(),
            words: vec![7, 0, 1, 2, 3],
        },
        Response::Summary {
            cycles_done: 5,
            walls: vec![],
        },
        Response::Ack {
            verb: 5,
            cycles_done: 5,
        },
    ]
}

#[test]
fn every_verb_round_trips_through_the_full_frame_path() {
    for req in all_requests() {
        let frame = frame_bytes(&encode_request(&req)).expect("frame");
        let payload = unframe_bytes(&frame).expect("unframe");
        assert_eq!(decode_request(&payload).expect("decode"), req);
        // The stream reader sees the same bytes a socket would.
        let mut cursor = std::io::Cursor::new(frame);
        let streamed = read_frame(&mut cursor).expect("read_frame");
        assert_eq!(decode_request(&streamed).expect("decode"), req);
    }
    for resp in all_responses() {
        let frame = frame_bytes(&encode_response(&resp)).expect("frame");
        let payload = unframe_bytes(&frame).expect("unframe");
        assert_eq!(decode_response(&payload).expect("decode"), resp);
    }
}

#[test]
fn every_frame_truncation_is_an_error_not_a_panic() {
    for req in all_requests() {
        let frame = frame_bytes(&encode_request(&req)).expect("frame");
        for n in 0..frame.len() {
            assert!(
                unframe_bytes(&frame[..n]).is_err(),
                "frame truncated to {n}/{} bytes decoded as Ok",
                frame.len()
            );
            let mut cursor = std::io::Cursor::new(frame[..n].to_vec());
            assert!(
                read_frame(&mut cursor).is_err(),
                "stream truncated to {n}/{} bytes read as Ok",
                frame.len()
            );
        }
    }
}

#[test]
fn every_payload_truncation_is_an_error_not_a_panic() {
    for req in all_requests() {
        let payload = encode_request(&req);
        for n in 0..payload.len() {
            assert!(
                decode_request(&payload[..n]).is_err(),
                "request payload truncated to {n}/{} bytes decoded as Ok",
                payload.len()
            );
        }
    }
    for resp in all_responses() {
        let payload = encode_response(&resp);
        for n in 0..payload.len() {
            assert!(
                decode_response(&payload[..n]).is_err(),
                "response payload truncated to {n}/{} bytes decoded as Ok",
                payload.len()
            );
        }
    }
}

#[test]
fn every_frame_byte_survives_a_bit_flip_without_panicking() {
    for req in all_requests() {
        let frame = frame_bytes(&encode_request(&req)).expect("frame");
        for i in 0..frame.len() {
            for bit in 0..8 {
                let mut flipped = frame.clone();
                flipped[i] ^= 1 << bit;
                // The FNV trailer covers header + payload, so any single
                // body flip must be caught; a trailer flip breaks the
                // checksum itself. Either way: an error, never a panic.
                if let Ok(payload) = unframe_bytes(&flipped) {
                    panic!(
                        "bit {bit} of byte {i} flipped yet the checksum passed \
                         ({} payload bytes)",
                        payload.len()
                    );
                }
            }
        }
    }
}

#[test]
fn payload_bit_flips_decode_or_error_without_panicking() {
    // Below the framing layer the codec has no checksum of its own, so a
    // flipped payload may legally decode to a different value — the
    // invariant is only "return, never panic, never over-allocate".
    for resp in all_responses() {
        let payload = encode_response(&resp);
        for i in 0..payload.len() {
            for bit in 0..8 {
                let mut flipped = payload.clone();
                flipped[i] ^= 1 << bit;
                let _ = decode_response(&flipped);
                let _ = decode_request(&flipped);
            }
        }
    }
}

#[test]
fn oversized_length_fields_are_rejected_before_allocation() {
    // A hostile 4 GiB length prefix must die on the length check, not in
    // `Vec::with_capacity`. Build a structurally valid header by hand.
    for hostile_len in [
        MAX_FRAME_BYTES + 1,
        MAX_FRAME_BYTES * 2,
        u32::MAX / 2,
        u32::MAX,
    ] {
        let mut frame = Vec::new();
        frame.extend_from_slice(WIRE_MAGIC);
        frame.extend_from_slice(&1u32.to_le_bytes());
        frame.extend_from_slice(&hostile_len.to_le_bytes());
        frame.extend_from_slice(&[0u8; 32]);
        assert!(unframe_bytes(&frame).is_err());
        let mut cursor = std::io::Cursor::new(frame);
        assert!(read_frame(&mut cursor).is_err());
    }
}

#[test]
fn inner_length_fields_cannot_drive_huge_allocations() {
    // A *payload-level* length (string/row counts) claiming far more
    // elements than the payload holds must be rejected by the bounded
    // decoder, not trusted into `with_capacity`.
    let mut payload = Vec::new();
    payload.extend_from_slice(&0u64.to_le_bytes()); // LatestHealth tag
    payload.extend_from_slice(&u64::MAX.to_le_bytes()); // absurd name length
    assert!(decode_request(&payload).is_err());

    let mut payload = Vec::new();
    payload.extend_from_slice(&2u64.to_le_bytes()); // Series tag
    payload.extend_from_slice(&0u64.to_le_bytes()); // empty wall name
    payload.extend_from_slice(&(u64::MAX / 88).to_le_bytes()); // absurd row count
    assert!(decode_response(&payload).is_err());
}

#[test]
fn garbage_prefixes_and_empty_input_error_cleanly() {
    assert!(unframe_bytes(&[]).is_err());
    assert!(unframe_bytes(b"ECS").is_err());
    assert!(unframe_bytes(b"NOTAFRAME-AT-ALL-JUST-BYTES").is_err());
    // Right magic, wrong version.
    let mut frame = Vec::new();
    frame.extend_from_slice(WIRE_MAGIC);
    frame.extend_from_slice(&99u32.to_le_bytes());
    frame.extend_from_slice(&0u32.to_le_bytes());
    frame.extend_from_slice(&[0u8; 8]);
    assert!(unframe_bytes(&frame).is_err());
    // Unknown verb tags at the payload layer.
    assert!(decode_request(&u64::MAX.to_le_bytes()).is_err());
    assert!(decode_response(&u64::MAX.to_le_bytes()).is_err());
    // Trailing bytes after a complete payload.
    let mut padded = encode_request(&Request::FleetSummary);
    padded.extend_from_slice(&[0u8; 4]);
    assert!(decode_request(&padded).is_err());
}

/// One complete ECSV frame per request verb and per response shape,
/// pinned by FNV-1a over the exact frame bytes (header, payload,
/// trailer): any change to the framing or a payload encoding moves a
/// digest.
#[test]
fn frame_bytes_are_pinned_per_verb() {
    let digest = |payload: Vec<u8>| faults::fnv1a64_bytes(&frame_bytes(&payload).expect("frame"));
    let requests: Vec<u64> = all_requests()
        .iter()
        .map(|req| digest(encode_request(req)))
        .collect();
    assert_eq!(
        requests,
        [
            0x3158_bc57_8509_a024,
            0xaa08_2224_0adb_0068,
            0xdbfc_a403_fdeb_3568,
            0x2be0_f826_82db_f060,
            0x6152_8c09_5724_d636,
            0xbf4c_ec53_c9ae_5a14,
        ],
        "ECSV request encoding changed"
    );
    let responses: Vec<u64> = all_responses()
        .iter()
        .map(|resp| digest(encode_response(resp)))
        .collect();
    assert_eq!(
        responses,
        [
            0xa2e6_7acd_8da5_67b8,
            0x79c8_1e62_28e8_70d4,
            0x04f8_70ed_26df_d0a0,
            0x70a5_0ff2_c7ad_9c45,
            0xeabb_56a6_fc99_8f8e,
            0xbdee_856a_2c30_0f6c,
        ],
        "ECSV response encoding changed"
    );
}
