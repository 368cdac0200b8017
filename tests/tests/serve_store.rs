//! Store-semantics suite for the serve crate: ring-buffer eviction
//! order, histogram merge algebra under interleaved publishes, the
//! swap-on-publish snapshot contract, and a hostile-input corpus for
//! the ECOSERVE checkpoint container.

use std::sync::Arc;

use campaign::WallFeatures;
use obs::Histogram;
use serve::{
    FeatureRow, ServeCheckpoint, ServeEngine, ServeOptions, SharedStore, StoreSnapshot, WallSeries,
};
use shm::health::HealthLevel;

use fleet::WallSpec;

fn row(cycle: u64) -> FeatureRow {
    FeatureRow {
        cycle,
        features: WallFeatures {
            strain_mean: 100.0 + cycle as f64,
            ..WallFeatures::default()
        },
        score: cycle as f64 / 10.0,
        grade: HealthLevel::A,
        result_digest: 0x9000 + cycle,
    }
}

#[test]
fn ring_evicts_oldest_first_and_keeps_cycle_order() {
    let mut series = WallSeries::new(3);
    assert!(series.is_empty());
    for cycle in 0..7 {
        series.push(row(cycle));
    }
    assert_eq!(series.len(), 3);
    assert_eq!(series.capacity(), 3);
    let kept: Vec<u64> = series.rows().map(|r| r.cycle).collect();
    assert_eq!(kept, vec![4, 5, 6], "ring must keep the newest, in order");
    assert_eq!(series.latest().expect("latest").cycle, 6);
    // Evicted cycles are silently absent from range queries.
    assert!(series.range(0, 3).is_empty());
    let mid: Vec<u64> = series.range(5, 5).iter().map(|r| r.cycle).collect();
    assert_eq!(mid, vec![5]);
    // A degenerate capacity is floored at one, not zero.
    let mut tiny = WallSeries::new(0);
    tiny.push(row(1));
    tiny.push(row(2));
    assert_eq!(tiny.len(), 1);
    assert_eq!(tiny.latest().expect("latest").cycle, 2);
}

#[test]
fn histogram_merge_is_associative_and_commutative() {
    let mut a = Histogram::new();
    let mut b = Histogram::new();
    let mut c = Histogram::new();
    for v in [0, 1, 3, 900] {
        a.record(v);
    }
    for v in [2, 2, 7] {
        b.record(v);
    }
    for v in [u64::MAX, 40, 40, 41] {
        c.record(v);
    }
    // (a ⊔ b) ⊔ c == a ⊔ (b ⊔ c)
    let mut left = a.clone();
    left.merge(&b);
    left.merge(&c);
    let mut bc = b.clone();
    bc.merge(&c);
    let mut right = a.clone();
    right.merge(&bc);
    assert_eq!(left.encode_words(), right.encode_words());
    // a ⊔ b == b ⊔ a
    let mut ab = a.clone();
    ab.merge(&b);
    let mut ba = b.clone();
    ba.merge(&a);
    assert_eq!(ab.encode_words(), ba.encode_words());
}

/// Ingest order across walls must not matter for the fleet-wide
/// histograms — the store's merge inherits the histogram's algebra.
#[test]
fn interleaved_ingest_orders_converge_to_one_histogram_state() {
    let names: Vec<String> = vec!["alpha".to_string(), "beta".to_string()];
    let mut hist_a = Histogram::new();
    hist_a.record(3);
    hist_a.record(900);
    let mut hist_b = Histogram::new();
    hist_b.record(7);
    let batch_a = vec![("inventory.q".to_string(), hist_a)];
    let batch_b = vec![("inventory.q".to_string(), hist_b)];

    let mut forward = StoreSnapshot::new(&names, 4);
    forward.ingest_wall("alpha", row(0), &batch_a).expect("a");
    forward.ingest_wall("beta", row(0), &batch_b).expect("b");

    let mut reversed = StoreSnapshot::new(&names, 4);
    reversed.ingest_wall("beta", row(0), &batch_b).expect("b");
    reversed.ingest_wall("alpha", row(0), &batch_a).expect("a");

    let f = forward.histogram("inventory.q").expect("merged");
    let r = reversed.histogram("inventory.q").expect("merged");
    assert_eq!(f.encode_words(), r.encode_words());
    assert_eq!(f.count(), 3);
    // Per-wall rings are untouched by the interleaving.
    assert_eq!(forward.digest(), reversed.digest());
}

#[test]
fn ingesting_an_unknown_wall_is_an_error_and_mutates_nothing() {
    let names: Vec<String> = vec!["alpha".to_string()];
    let mut store = StoreSnapshot::new(&names, 4);
    let before = store.digest();
    let mut h = Histogram::new();
    h.record(1);
    let batch = vec![("inventory.q".to_string(), h)];
    assert!(store.ingest_wall("ghost", row(0), &batch).is_err());
    assert_eq!(store.digest(), before, "failed ingest must not mutate");
    assert!(store.histogram("inventory.q").is_none());
}

/// The swap-on-publish contract: a snapshot taken before a publish
/// keeps answering from the old state; only a *new* `snapshot()` call
/// observes the published store.
#[test]
fn publish_swaps_snapshots_without_disturbing_held_readers() {
    let names: Vec<String> = vec!["alpha".to_string()];
    let shared = SharedStore::new(StoreSnapshot::new(&names, 4));
    let held: Arc<StoreSnapshot> = shared.snapshot();
    assert!(held.latest_health("alpha").is_none());

    let mut next = (*shared.snapshot()).clone();
    next.ingest_wall("alpha", row(0), &[]).expect("ingest");
    shared.publish(next);

    // The held reader still sees the pre-publish world…
    assert!(held.latest_health("alpha").is_none());
    // …while a fresh snapshot sees the new one.
    let fresh = shared.snapshot();
    assert_eq!(fresh.latest_health("alpha").expect("row").cycle, 0);
    assert_ne!(fresh.digest(), held.digest());
}

fn specs() -> Vec<WallSpec> {
    (0..2)
        .map(|i| WallSpec::new(format!("store-{i}"), vec![]).seed(31 + i as u64))
        .collect()
}

fn options() -> ServeOptions {
    ServeOptions::new()
        .seed(7)
        .history_cycles(4)
        .cycle_limit(2)
        .build()
        .expect("valid options")
}

fn finished_checkpoint_bytes() -> Vec<u8> {
    let mut engine = ServeEngine::new(specs(), options()).expect("engine");
    engine.run_to_limit().expect("runs");
    ServeCheckpoint::of(&engine).expect("checkpoint").to_bytes()
}

#[test]
fn every_ecoserve_truncation_is_an_error_not_a_panic() {
    let bytes = finished_checkpoint_bytes();
    for n in 0..bytes.len() {
        assert!(
            ServeCheckpoint::from_bytes(&bytes[..n]).is_err(),
            "truncation to {n}/{} bytes decoded as Ok",
            bytes.len()
        );
    }
    ServeCheckpoint::from_bytes(&bytes).expect("full checkpoint decodes");
}

#[test]
fn every_ecoserve_byte_survives_a_bit_flip_without_panicking() {
    let bytes = finished_checkpoint_bytes();
    for (i, _) in bytes.iter().enumerate() {
        let mut flipped = bytes.clone();
        flipped[i] ^= 1 << (i % 8);
        // The trailing byte-checksum covers the whole container, so a
        // flip that still parses must then face resume's semantic
        // checks; Ok or Err are both fine — returning is the test.
        if let Ok(cp) = ServeCheckpoint::from_bytes(&flipped) {
            let _ = cp.resume(specs(), options());
        }
    }
}

#[test]
fn ecoserve_garbage_prefixes_and_config_mismatch_error_cleanly() {
    assert!(ServeCheckpoint::from_bytes(&[]).is_err());
    assert!(ServeCheckpoint::from_bytes(b"ECOSERV").is_err());
    assert!(ServeCheckpoint::from_bytes(b"NOTSERVE").is_err());
    assert!(ServeCheckpoint::from_bytes(b"ECOSERVE").is_err());
    let mut hostile = b"ECOSERVE".to_vec();
    hostile.extend_from_slice(&[0xFF; 64]);
    assert!(ServeCheckpoint::from_bytes(&hostile).is_err());

    // A checkpoint for one config must not resume another.
    let cp = ServeCheckpoint::from_bytes(&finished_checkpoint_bytes()).expect("decode");
    let other = ServeOptions::new()
        .seed(8)
        .history_cycles(4)
        .cycle_limit(2)
        .build()
        .expect("valid options");
    assert!(cp.resume(specs(), other).is_err(), "wrong seed accepted");
    let mut fewer = specs();
    fewer.pop();
    assert!(cp.resume(fewer, options()).is_err(), "wrong walls accepted");
}

/// The exact ECOSERVE bytes of a finished two-wall service, pinned by
/// length and FNV-1a: any change to the container encoding moves the
/// digest.
#[test]
fn ecoserve_bytes_are_pinned() {
    let bytes = finished_checkpoint_bytes();
    assert_eq!(
        (bytes.len(), faults::fnv1a64_bytes(&bytes)),
        (1177, 0xc70e_0806_b0fd_e51f),
        "ECOSERVE encoding changed"
    );
}
