//! Hostile-input corpus for the ECOCAMPN checkpoint format, mirroring
//! `checkpoint_hostile.rs` one layer up: every truncation and a dense
//! sweep of single-bit flips over a real mid-campaign checkpoint —
//! structure-state section included — must *return* errors through
//! `CampaignCheckpoint::from_bytes` → `resume`, never panic.

use campaign::{Campaign, CampaignCheckpoint, CampaignOptions, CampaignWallSpec, DamageScenario};
use fleet::WallSpec;

/// Two tiny walls — one evolving, one bare — so the checkpoint bytes
/// carry both structure-state shapes (with and without capsule
/// derating) plus live grader state, while each survey stays cheap.
fn specs() -> Vec<CampaignWallSpec> {
    vec![
        CampaignWallSpec::new(
            WallSpec::new("hostile-evolving", vec![0.5]).seed(31),
            DamageScenario::slow_degradation(1),
        ),
        CampaignWallSpec::new(
            WallSpec::new("hostile-bare", vec![]).seed(32),
            DamageScenario::frozen(),
        ),
    ]
}

fn options() -> CampaignOptions {
    CampaignOptions::new().epochs(4).seed(0xBAD_CA4A)
}

/// A checkpoint two epochs in: evolved states, warm baselines, a live
/// record list — every section of the wire format is non-trivial.
fn mid_campaign_checkpoint() -> CampaignCheckpoint {
    let mut campaign = Campaign::new(specs(), options()).expect("campaign");
    for _ in 0..2 {
        campaign.run_epoch().expect("epoch");
    }
    CampaignCheckpoint::of(&campaign)
}

#[test]
fn every_truncation_is_an_error_not_a_panic() {
    let bytes = mid_campaign_checkpoint().to_bytes();
    for n in 0..bytes.len() {
        let result = CampaignCheckpoint::from_bytes(&bytes[..n]);
        assert!(
            result.is_err(),
            "truncation to {n}/{} bytes decoded as Ok",
            bytes.len()
        );
    }
    // Sanity: the untruncated bytes do decode.
    CampaignCheckpoint::from_bytes(&bytes).expect("full checkpoint decodes");
}

/// Every byte takes one flip; whatever still parses must then face
/// `resume`'s semantic checks. Ok or Err are both fine — returning is
/// the test. (The trailing byte checksum makes Err the expected arm
/// for every flip, but the sweep must not *rely* on that.)
#[test]
fn every_byte_survives_a_bit_flip_without_panicking() {
    let bytes = mid_campaign_checkpoint().to_bytes();
    for (i, _) in bytes.iter().enumerate() {
        let mut flipped = bytes.clone();
        flipped[i] ^= 1 << (i % 8);
        if let Ok(cp) = CampaignCheckpoint::from_bytes(&flipped) {
            let _ = cp.resume(specs(), options());
        }
    }
}

/// All eight bits of the header region, where the structure the decoder
/// trusts most is concentrated.
#[test]
fn header_bits_are_fully_swept() {
    let bytes = mid_campaign_checkpoint().to_bytes();
    let header = bytes.len().min(64);
    for i in 0..header {
        for bit in 0..8 {
            let mut flipped = bytes.clone();
            flipped[i] ^= 1 << bit;
            if let Ok(cp) = CampaignCheckpoint::from_bytes(&flipped) {
                let _ = cp.resume(specs(), options());
            }
        }
    }
}

/// A checkpoint for one configuration must not resume under another:
/// different schedule, different seed, different scenario, different
/// wall set — each is a config-digest mismatch, reported as an error.
#[test]
fn resume_rejects_every_config_mismatch() {
    let cp = mid_campaign_checkpoint;
    assert!(cp().resume(specs(), options().epochs(6)).is_err());
    assert!(cp().resume(specs(), options().seed(1)).is_err());
    assert!(cp().resume(specs(), options().days_per_epoch(7)).is_err());
    let mut rescripted = specs();
    rescripted[0].scenario = DamageScenario::crack_onset(1);
    assert!(cp().resume(rescripted, options()).is_err());
    let mut fewer = specs();
    fewer.pop();
    assert!(cp().resume(fewer, options()).is_err());
    let mut more = specs();
    more.push(CampaignWallSpec::new(
        WallSpec::new("hostile-extra", vec![]).seed(33),
        DamageScenario::frozen(),
    ));
    assert!(cp().resume(more, options()).is_err());
    // And the untampered pair still resumes.
    assert!(cp().resume(specs(), options()).is_ok());
}

#[test]
fn garbage_prefixes_and_empty_input_error_cleanly() {
    assert!(CampaignCheckpoint::from_bytes(&[]).is_err());
    assert!(CampaignCheckpoint::from_bytes(b"ECOCAMP").is_err());
    assert!(CampaignCheckpoint::from_bytes(b"NOTCAMPN").is_err());
    // Magic alone, then nothing: the version read must fail, not wrap.
    assert!(CampaignCheckpoint::from_bytes(b"ECOCAMPN").is_err());
    // All-0xFF body: absurd version, absurd lengths.
    let mut hostile = b"ECOCAMPN".to_vec();
    hostile.extend_from_slice(&[0xFF; 64]);
    assert!(CampaignCheckpoint::from_bytes(&hostile).is_err());
}

/// The exact ECOCAMPN bytes of the mid-campaign checkpoint, pinned by
/// length and FNV-1a: any change to the encoding — field order, widths,
/// length prefixes, the trailing checksum — moves the digest.
#[test]
fn checkpoint_bytes_are_pinned() {
    let bytes = mid_campaign_checkpoint().to_bytes();
    assert_eq!(
        (bytes.len(), faults::fnv1a64_bytes(&bytes)),
        (1008, 0xa9c0_d601_e2d2_d4f0),
        "ECOCAMPN encoding changed"
    );
}
