//! FNV-1a digests over word streams.
//!
//! The fault matrix proves determinism by digest equality: the same
//! seed must yield bit-identical survey reports at any worker count.
//! FNV-1a is order-sensitive, dependency-free, and stable across
//! platforms, which makes the digests safe to check into fixtures.

/// FNV-1a over a `u64` word stream (little-endian byte order).
#[must_use]
pub fn fnv1a64<I: IntoIterator<Item = u64>>(words: I) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for w in words {
        for byte in w.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    hash
}

/// FNV-1a over a raw byte stream — the trailing checksum of the
/// ECOCAMPN/ECOSERVE checkpoints and the ECSV wire frames.
#[must_use]
pub fn fnv1a64_bytes<'a, I: IntoIterator<Item = &'a u8>>(bytes: I) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// FNV-1a over a bit string, packed 64 bits per word (LSB first, with a
/// trailing length word so `[true]` and `[true, false]` differ).
#[must_use]
pub fn fnv1a64_bits(bits: &[bool]) -> u64 {
    let mut words: Vec<u64> = Vec::with_capacity(bits.len() / 64 + 2);
    for chunk in bits.chunks(64) {
        let mut w = 0u64;
        for (i, &b) in chunk.iter().enumerate() {
            if b {
                w |= 1u64 << i;
            }
        }
        words.push(w);
    }
    words.push(bits.len() as u64);
    fnv1a64(words)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_order_sensitive() {
        assert_ne!(fnv1a64([1, 2]), fnv1a64([2, 1]));
    }

    #[test]
    fn digest_is_stable() {
        // Pinned: a silent change to the digest would invalidate every
        // checked-in fixture.
        assert_eq!(fnv1a64([]), 0xCBF2_9CE4_8422_2325);
        assert_eq!(
            fnv1a64([0x1234_5678_9ABC_DEF0]),
            fnv1a64([0x1234_5678_9ABC_DEF0])
        );
    }

    #[test]
    fn byte_digest_matches_the_reference_vectors() {
        // The published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64_bytes(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a64_bytes(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a64_bytes(b"foobar"), 0x8594_4171_F739_67E8);
        // A word digest is the byte digest of the little-endian words.
        let w = 0x0123_4567_89AB_CDEFu64;
        assert_eq!(fnv1a64([w]), fnv1a64_bytes(&w.to_le_bytes()));
    }

    #[test]
    fn bit_digest_distinguishes_length() {
        assert_ne!(fnv1a64_bits(&[true]), fnv1a64_bits(&[true, false]));
        assert_ne!(fnv1a64_bits(&[]), fnv1a64_bits(&[false]));
    }
}
