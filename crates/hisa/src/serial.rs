//! A small, versioned binary codec for the HISA parameter types.
//!
//! The serving tier persists compiled artifacts and key metadata to disk
//! (`chet-serve`'s crash-safe store). Persistence needs a byte format that
//! is (a) deterministic — the same value always encodes to the same bytes,
//! so record checksums are meaningful — and (b) *strictly validated* on
//! the way back in: a truncated or bit-flipped record must surface as a
//! typed [`CodecError`], never as a silently wrong value. Compiled
//! artifacts, store and journal records and the RNS-CKKS ciphertext wire
//! format are all written with this hand-rolled little-endian codec, so
//! there is no serializer dependency and no format drift.
//!
//! Layout conventions: integers are little-endian; `usize` travels as
//! `u64`; `f64` travels as its IEEE-754 bit pattern; collections are
//! length-prefixed with `u32`; enums carry a one-byte tag that the decoder
//! refuses to guess about.

use crate::keys::RotationKeyPolicy;
use crate::params::{EncryptionParams, ModulusSpec};
use crate::security::SecurityLevel;
use std::collections::BTreeSet;
use std::fmt;

/// A decode failure: what was malformed and where (byte offset).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the value did.
    Truncated {
        /// Byte offset where more input was required.
        at: usize,
        /// What was being read.
        what: &'static str,
    },
    /// An enum tag byte had no corresponding variant.
    BadTag {
        /// Byte offset of the tag.
        at: usize,
        /// Which enum was being read.
        what: &'static str,
        /// The unrecognised tag value.
        tag: u8,
    },
    /// A length prefix exceeded the bytes actually available — a classic
    /// truncation/corruption signature caught before allocating.
    BadLength {
        /// Byte offset of the length prefix.
        at: usize,
        /// What was being read.
        what: &'static str,
        /// The claimed element count.
        len: usize,
    },
    /// Input remained after the value was fully decoded.
    TrailingBytes {
        /// Number of unconsumed bytes.
        extra: usize,
    },
    /// A number decoded intact but lies outside the range its field
    /// allows.
    OutOfRange {
        /// Byte offset of the value.
        at: usize,
        /// Which field was being read.
        what: &'static str,
        /// The value's IEEE-754 bit pattern.
        bits: u64,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { at, what } => {
                write!(f, "truncated input at byte {at} while reading {what}")
            }
            CodecError::BadTag { at, what, tag } => {
                write!(f, "invalid {what} tag {tag} at byte {at}")
            }
            CodecError::BadLength { at, what, len } => {
                write!(f, "implausible {what} length {len} at byte {at}")
            }
            CodecError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing byte(s) after value")
            }
            CodecError::OutOfRange { at, what, bits } => {
                write!(f, "{what} = {} at byte {at} is out of range", f64::from_bits(*bits))
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Append-only encoder over a byte vector.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Writer { buf: Vec::new() }
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian u32.
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u64.
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a u64.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an f64 as its bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a u32 length prefix followed by the raw bytes.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }
}

/// Cursor-based decoder that refuses malformed input with [`CodecError`].
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`, cursor at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Current byte offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails with [`CodecError::TrailingBytes`] unless fully consumed.
    pub fn finish(&self) -> Result<(), CodecError> {
        if self.remaining() != 0 {
            return Err(CodecError::TrailingBytes { extra: self.remaining() });
        }
        Ok(())
    }

    #[inline]
    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated { at: self.pos, what });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    #[inline]
    pub fn get_u8(&mut self, what: &'static str) -> Result<u8, CodecError> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a little-endian u32.
    #[inline]
    pub fn get_u32(&mut self, what: &'static str) -> Result<u32, CodecError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian u64.
    #[inline]
    pub fn get_u64(&mut self, what: &'static str) -> Result<u64, CodecError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Reads a u64-encoded `usize`.
    pub fn get_usize(&mut self, what: &'static str) -> Result<usize, CodecError> {
        Ok(self.get_u64(what)? as usize)
    }

    /// Reads an f64 bit pattern.
    pub fn get_f64(&mut self, what: &'static str) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.get_u64(what)?))
    }

    /// Reads a u32 length prefix and that many raw bytes. The length is
    /// validated against the remaining input *before* any allocation, so a
    /// corrupted prefix cannot trigger a huge allocation.
    pub fn get_bytes(&mut self, what: &'static str) -> Result<&'a [u8], CodecError> {
        let at = self.pos;
        let len = self.get_u32(what)? as usize;
        if len > self.remaining() {
            return Err(CodecError::BadLength { at, what, len });
        }
        self.take(len, what)
    }

    /// Reads a length-prefixed UTF-8 string (invalid UTF-8 is corruption).
    pub fn get_str(&mut self, what: &'static str) -> Result<String, CodecError> {
        let at = self.pos;
        let bytes = self.get_bytes(what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| CodecError::BadTag { at, what, tag: 0xFF })
    }
}

/// FNV-1a 64-bit hash — the store's per-record checksum. Not cryptographic
/// (the threat model is crashes and bit rot, not adversaries), but cheap,
/// dependency-free and sensitive to every byte.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Encodes a [`SecurityLevel`].
pub fn put_security(w: &mut Writer, level: SecurityLevel) {
    w.put_u8(match level {
        SecurityLevel::Bits128 => 0,
        SecurityLevel::Bits192 => 1,
        SecurityLevel::Bits256 => 2,
        SecurityLevel::Insecure => 3,
    });
}

/// Decodes a [`SecurityLevel`].
pub fn get_security(r: &mut Reader<'_>) -> Result<SecurityLevel, CodecError> {
    let at = r.position();
    match r.get_u8("SecurityLevel")? {
        0 => Ok(SecurityLevel::Bits128),
        1 => Ok(SecurityLevel::Bits192),
        2 => Ok(SecurityLevel::Bits256),
        3 => Ok(SecurityLevel::Insecure),
        tag => Err(CodecError::BadTag { at, what: "SecurityLevel", tag }),
    }
}

/// Encodes a [`ModulusSpec`].
pub fn put_modulus(w: &mut Writer, m: &ModulusSpec) {
    match m {
        ModulusSpec::PowerOfTwo { log_q, log_special } => {
            w.put_u8(0);
            w.put_u32(*log_q);
            w.put_u32(*log_special);
        }
        ModulusSpec::PrimeChain { primes, special } => {
            w.put_u8(1);
            w.put_u32(primes.len() as u32);
            for &p in primes {
                w.put_u64(p);
            }
            w.put_u64(*special);
        }
    }
}

/// Decodes a [`ModulusSpec`].
pub fn get_modulus(r: &mut Reader<'_>) -> Result<ModulusSpec, CodecError> {
    let at = r.position();
    match r.get_u8("ModulusSpec")? {
        0 => Ok(ModulusSpec::PowerOfTwo {
            log_q: r.get_u32("ModulusSpec.log_q")?,
            log_special: r.get_u32("ModulusSpec.log_special")?,
        }),
        1 => {
            let at = r.position();
            let len = r.get_u32("ModulusSpec.primes")? as usize;
            if len.saturating_mul(8) > r.remaining() {
                return Err(CodecError::BadLength { at, what: "ModulusSpec.primes", len });
            }
            let mut primes = Vec::with_capacity(len);
            for _ in 0..len {
                primes.push(r.get_u64("ModulusSpec.primes")?);
            }
            Ok(ModulusSpec::PrimeChain { primes, special: r.get_u64("ModulusSpec.special")? })
        }
        tag => Err(CodecError::BadTag { at, what: "ModulusSpec", tag }),
    }
}

/// Encodes [`EncryptionParams`].
pub fn put_params(w: &mut Writer, p: &EncryptionParams) {
    w.put_usize(p.degree);
    put_modulus(w, &p.modulus);
    put_security(w, p.security);
    w.put_f64(p.error_stddev);
}

/// Decodes [`EncryptionParams`].
pub fn get_params(r: &mut Reader<'_>) -> Result<EncryptionParams, CodecError> {
    Ok(EncryptionParams {
        degree: r.get_usize("EncryptionParams.degree")?,
        modulus: get_modulus(r)?,
        security: get_security(r)?,
        error_stddev: r.get_f64("EncryptionParams.error_stddev")?,
    })
}

/// Encodes a [`RotationKeyPolicy`].
pub fn put_rotation_keys(w: &mut Writer, k: &RotationKeyPolicy) {
    match k {
        RotationKeyPolicy::PowersOfTwo => w.put_u8(0),
        RotationKeyPolicy::Exact(steps) => {
            w.put_u8(1);
            w.put_u32(steps.len() as u32);
            for &s in steps {
                w.put_usize(s);
            }
        }
    }
}

/// Decodes a [`RotationKeyPolicy`].
pub fn get_rotation_keys(r: &mut Reader<'_>) -> Result<RotationKeyPolicy, CodecError> {
    let at = r.position();
    match r.get_u8("RotationKeyPolicy")? {
        0 => Ok(RotationKeyPolicy::PowersOfTwo),
        1 => {
            let at = r.position();
            let len = r.get_u32("RotationKeyPolicy.steps")? as usize;
            if len.saturating_mul(8) > r.remaining() {
                return Err(CodecError::BadLength { at, what: "RotationKeyPolicy.steps", len });
            }
            let mut steps = BTreeSet::new();
            for _ in 0..len {
                steps.insert(r.get_usize("RotationKeyPolicy.steps")?);
            }
            Ok(RotationKeyPolicy::Exact(steps))
        }
        tag => Err(CodecError::BadTag { at, what: "RotationKeyPolicy", tag }),
    }
}

/// A stable 64-bit fingerprint of encryption parameters — used to bind a
/// persisted key bundle to the artifact it belongs to. Computed over the
/// canonical encoding, so equal params always fingerprint equally.
pub fn params_fingerprint(p: &EncryptionParams) -> u64 {
    let mut w = Writer::new();
    put_params(&mut w, p);
    fnv1a64(&w.into_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rns_params() -> EncryptionParams {
        EncryptionParams {
            degree: 8192,
            modulus: ModulusSpec::PrimeChain {
                primes: vec![1099511627689, 1099511627691],
                special: 2199023255531,
            },
            security: SecurityLevel::Bits128,
            error_stddev: 3.2,
        }
    }

    #[test]
    fn params_roundtrip_both_variants() {
        for p in [
            rns_params(),
            EncryptionParams {
                degree: 16384,
                modulus: ModulusSpec::PowerOfTwo { log_q: 155, log_special: 60 },
                security: SecurityLevel::Insecure,
                error_stddev: 3.2,
            },
        ] {
            let mut w = Writer::new();
            put_params(&mut w, &p);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            assert_eq!(get_params(&mut r).unwrap(), p);
            r.finish().unwrap();
        }
    }

    #[test]
    fn rotation_policy_roundtrip() {
        for k in [
            RotationKeyPolicy::PowersOfTwo,
            RotationKeyPolicy::Exact([1usize, 2, 5, 31].into_iter().collect()),
        ] {
            let mut w = Writer::new();
            put_rotation_keys(&mut w, &k);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            assert_eq!(get_rotation_keys(&mut r).unwrap(), k);
            r.finish().unwrap();
        }
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let mut w = Writer::new();
        put_params(&mut w, &rns_params());
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(
                get_params(&mut r).is_err(),
                "truncation at {cut} must not decode"
            );
        }
    }

    #[test]
    fn bad_tags_are_rejected() {
        let mut r = Reader::new(&[9]);
        assert!(matches!(
            get_security(&mut r),
            Err(CodecError::BadTag { what: "SecurityLevel", tag: 9, .. })
        ));
    }

    #[test]
    fn corrupted_length_prefix_is_rejected_before_allocation() {
        let mut w = Writer::new();
        w.put_u8(1); // PrimeChain tag
        w.put_u32(u32::MAX); // absurd prime count
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(get_modulus(&mut r), Err(CodecError::BadLength { .. })));
    }

    #[test]
    fn fingerprint_is_stable_and_distinguishes() {
        let a = rns_params();
        assert_eq!(params_fingerprint(&a), params_fingerprint(&a.clone()));
        let mut b = a.clone();
        b.degree = 16384;
        assert_ne!(params_fingerprint(&a), params_fingerprint(&b));
    }

    #[test]
    fn checksum_detects_single_bit_flips() {
        let mut w = Writer::new();
        put_params(&mut w, &rns_params());
        let bytes = w.into_bytes();
        let base = fnv1a64(&bytes);
        for i in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[i] ^= 0x01;
            assert_ne!(fnv1a64(&flipped), base, "bit flip at byte {i} undetected");
        }
    }
}
