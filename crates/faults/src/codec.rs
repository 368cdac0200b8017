//! The workspace's one bounded little-endian byte codec.
//!
//! Every persistent or networked byte format in the stack — the
//! ECOFLEET and ECOCAMPN checkpoints, the ECOSERVE checkpoint and the
//! ECSV wire payloads — is a sequence of little-endian `u64` words, with
//! strings and word lists travelling as a `u64` length prefix followed
//! by their contents. The encoders here are plain appends; [`Dec`] is
//! the matching decoder, and it is the only place that turns untrusted
//! bytes into lengths:
//!
//! - every read is bounds-checked, so truncated input is an error,
//!   never a panic;
//! - every length prefix is capped by the bytes *remaining*, so a
//!   hostile length cannot drive an allocation larger than the input
//!   that carried it;
//! - [`Dec::finish`] rejects trailing bytes.
//!
//! Formats that carry a trailing FNV-1a checksum over every previous
//! byte seal with [`put_checksum`] and open with [`checked_body`].
//! Domain decoding (tags, rows, reports) stays with each format; it is
//! written as free functions over a `&mut Dec`.

use dsp::{EcoError, EcoResult};

use crate::digest::fnv1a64_bytes;

/// Appends `v` as eight little-endian bytes.
#[inline]
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a string as its byte length followed by the raw UTF-8.
#[inline]
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Appends a word list as its length followed by the words.
#[inline]
pub fn put_words(out: &mut Vec<u8>, words: &[u64]) {
    put_u64(out, words.len() as u64);
    for &w in words {
        put_u64(out, w);
    }
}

/// Appends the FNV-1a checksum of every byte already in `out`.
#[inline]
pub fn put_checksum(out: &mut Vec<u8>) {
    let sum = fnv1a64_bytes(out.iter());
    put_u64(out, sum);
}

/// Verifies the trailing FNV-1a checksum written by [`put_checksum`]
/// and returns the bytes it covers.
#[must_use]
pub fn checked_body(bytes: &[u8]) -> EcoResult<&[u8]> {
    let split = bytes.len().checked_sub(8).ok_or(EcoError::Protocol {
        what: "codec input too short for its checksum",
    })?;
    let (body, trailer) = bytes.split_at(split);
    if Dec::new(trailer).u64()? != fnv1a64_bytes(body) {
        return Err(EcoError::Protocol {
            what: "codec checksum mismatch",
        });
    }
    Ok(body)
}

/// Bounds-checked little-endian decoder over a byte slice.
#[derive(Debug)]
pub struct Dec<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Dec<'a> {
    /// A decoder positioned at the first byte of `bytes`.
    #[inline]
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        Dec { bytes, at: 0 }
    }

    /// Bytes not yet consumed.
    #[inline]
    fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }

    /// The next `n` raw bytes.
    #[inline]
    #[must_use]
    pub fn take(&mut self, n: usize) -> EcoResult<&'a [u8]> {
        if n > self.remaining() {
            return Err(EcoError::Protocol {
                what: "codec input truncated",
            });
        }
        let slice = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(slice)
    }

    /// The next little-endian `u64`.
    #[inline]
    #[must_use]
    pub fn u64(&mut self) -> EcoResult<u64> {
        let mut buf = [0u8; 8];
        buf.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(buf))
    }

    /// The next `u64`, which must fit a `u32`.
    #[inline]
    #[must_use]
    pub fn u32(&mut self) -> EcoResult<u32> {
        u32::try_from(self.u64()?).map_err(|_| EcoError::Protocol {
            what: "codec u32 field out of range",
        })
    }

    /// A length or count prefix, capped by the bytes remaining after it:
    /// every counted item takes at least one byte, so a larger value
    /// cannot be honest and is rejected before anything is allocated.
    #[inline]
    #[must_use]
    pub fn len(&mut self) -> EcoResult<usize> {
        let v = self.u64()?;
        if v > self.remaining() as u64 {
            return Err(EcoError::Protocol {
                what: "codec length exceeds the remaining input",
            });
        }
        Ok(v as usize)
    }

    /// A length-prefixed UTF-8 string.
    #[must_use]
    pub fn string(&mut self) -> EcoResult<String> {
        let n = self.len()?;
        let raw = self.take(n)?;
        std::str::from_utf8(raw)
            .map(str::to_owned)
            .map_err(|_| EcoError::Protocol {
                what: "codec string is not UTF-8",
            })
    }

    /// A length-prefixed word list.
    #[must_use]
    pub fn words(&mut self) -> EcoResult<Vec<u64>> {
        let n = self.len()?;
        let mut words = Vec::with_capacity(n);
        for _ in 0..n {
            words.push(self.u64()?);
        }
        Ok(words)
    }

    /// Succeeds only when every byte has been consumed.
    #[inline]
    #[must_use]
    pub fn finish(&self) -> EcoResult<()> {
        if self.remaining() != 0 {
            return Err(EcoError::Protocol {
                what: "codec trailing bytes after the payload",
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    #[cfg(feature = "fuzz")]
    use proptest::prelude::*;

    /// Encodes one value of every shape the decoder reads.
    fn encode(tag: u64, small: u32, name: &str, words: &[u64]) -> Vec<u8> {
        let mut out = Vec::new();
        put_u64(&mut out, tag);
        put_u64(&mut out, u64::from(small));
        put_str(&mut out, name);
        put_words(&mut out, words);
        out
    }

    /// The decoder program matching [`encode`].
    fn decode(bytes: &[u8]) -> EcoResult<(u64, u32, String, Vec<u64>)> {
        let mut d = Dec::new(bytes);
        let value = (d.u64()?, d.u32()?, d.string()?, d.words()?);
        d.finish()?;
        Ok(value)
    }

    #[test]
    fn round_trips_every_shape() {
        let bytes = encode(u64::MAX, u32::MAX, "wall-α", &[0, 1, u64::MAX]);
        let (tag, small, name, words) = decode(&bytes).expect("decode");
        assert_eq!((tag, small), (u64::MAX, u32::MAX));
        assert_eq!(name, "wall-α");
        assert_eq!(words, vec![0, 1, u64::MAX]);
    }

    #[test]
    fn every_strict_prefix_errors() {
        let bytes = encode(7, 3, "north", &[4, 5]);
        for n in 0..bytes.len() {
            assert!(decode(&bytes[..n]).is_err(), "prefix of {n} bytes decoded");
        }
        // An empty string and an empty word list still need their
        // length prefixes.
        let bytes = encode(7, 3, "", &[]);
        for n in 0..bytes.len() {
            assert!(decode(&bytes[..n]).is_err(), "prefix of {n} bytes decoded");
        }
    }

    #[test]
    fn lengths_beyond_the_remaining_input_are_rejected() {
        // Eight bytes of payload follow the prefix: `remaining` is 8.
        for claimed in [9, u64::MAX / 8, u64::MAX] {
            let mut bytes = Vec::new();
            put_u64(&mut bytes, claimed);
            put_u64(&mut bytes, 0);
            assert!(Dec::new(&bytes).len().is_err(), "length {claimed}");
            assert!(Dec::new(&bytes).string().is_err(), "string {claimed}");
            assert!(Dec::new(&bytes).words().is_err(), "words {claimed}");
        }
        // The cap is the remaining bytes, not the whole input.
        let mut bytes = Vec::new();
        put_u64(&mut bytes, 0);
        put_u64(&mut bytes, 9);
        put_u64(&mut bytes, 0);
        let mut d = Dec::new(&bytes);
        d.u64().expect("first word");
        assert!(d.len().is_err());
        // Exactly the remaining bytes is honest.
        let mut bytes = Vec::new();
        put_u64(&mut bytes, 3);
        bytes.extend_from_slice(b"abc");
        assert_eq!(Dec::new(&bytes).string().expect("fits"), "abc");
    }

    #[test]
    fn u32_fields_reject_overflow() {
        let mut bytes = Vec::new();
        put_u64(&mut bytes, u64::from(u32::MAX) + 1);
        assert!(Dec::new(&bytes).u32().is_err());
        let mut bytes = Vec::new();
        put_u64(&mut bytes, u64::from(u32::MAX));
        assert_eq!(Dec::new(&bytes).u32().expect("fits"), u32::MAX);
    }

    #[test]
    fn non_utf8_strings_are_rejected() {
        let mut bytes = Vec::new();
        put_u64(&mut bytes, 2);
        bytes.extend_from_slice(&[0xC3, 0x28]);
        assert!(Dec::new(&bytes).string().is_err());
    }

    #[test]
    fn finish_catches_trailing_bytes() {
        let mut bytes = encode(1, 2, "x", &[3]);
        assert!(decode(&bytes).is_ok());
        bytes.push(0);
        assert!(decode(&bytes).is_err());
        let d = Dec::new(&[]);
        assert!(d.finish().is_ok());
    }

    #[test]
    fn checksum_seals_and_opens_the_body() {
        let mut bytes = encode(1, 2, "sealed", &[3, 4]);
        let body_len = bytes.len();
        put_checksum(&mut bytes);
        assert_eq!(checked_body(&bytes).expect("intact").len(), body_len);
        for at in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[at] ^= 0x10;
            assert!(checked_body(&flipped).is_err(), "flip at {at} passed");
        }
        for n in 0..8 {
            assert!(checked_body(&bytes[..n]).is_err());
        }
    }

    #[cfg(feature = "fuzz")]
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn strict_prefixes_of_any_encoding_error(
            tag in any::<u64>(),
            small in any::<u32>(),
            name in collection::vec(any::<u8>(), 0..24),
            words in collection::vec(any::<u64>(), 0..6),
        ) {
            let name = String::from_utf8_lossy(&name).into_owned();
            let bytes = encode(tag, small, &name, &words);
            prop_assert_eq!(decode(&bytes).expect("full"), (tag, small, name, words));
            for n in 0..bytes.len() {
                prop_assert!(decode(&bytes[..n]).is_err());
            }
        }

        #[test]
        fn arbitrary_bytes_never_panic(bytes in collection::vec(any::<u8>(), 0..96)) {
            let _ = decode(&bytes);
            let _ = checked_body(&bytes);
            let mut d = Dec::new(&bytes);
            while let Ok(n) = d.len() {
                prop_assert!(n <= bytes.len());
                if d.take(n).is_err() {
                    break;
                }
            }
        }
    }
}
