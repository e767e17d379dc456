//! Compact binary wire format for RNS-CKKS ciphertexts.
//!
//! In the paper's Figure 3 deployment the encrypted image travels from the
//! client to the server and the encrypted prediction travels back. This
//! module provides a versioned, length-checked binary codec for that hop
//! (parameters travel inside the compiled artifact's codec, and keys are
//! never serialized: the serving store persists the seed and rotation
//! steps they regenerate from, its `KeyBundleRecord`; ciphertexts are the
//! high-volume payload and get a dedicated format).

use super::poly::RnsPoly;
use super::scheme::RnsCiphertext;
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Format magic (`CHCT` = CHet CipherText).
const MAGIC: u32 = 0x43484354;
/// Current format version.
const VERSION: u8 = 1;

/// Error decoding a wire payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed ciphertext payload: {}", self.0)
    }
}

impl std::error::Error for WireError {}

fn write_poly(p: &RnsPoly, buf: &mut BytesMut) {
    buf.put_u32_le(p.level as u32);
    buf.put_u8(p.special as u8);
    buf.put_u8(p.ntt_form as u8);
    buf.put_u32_le(p.data.len() as u32);
    for comp in &p.data {
        buf.put_u32_le(comp.len() as u32);
        for &v in comp {
            buf.put_u64_le(v);
        }
    }
}

fn read_poly(buf: &mut Bytes) -> Result<RnsPoly, WireError> {
    if buf.remaining() < 10 {
        return Err(WireError("truncated polynomial header".into()));
    }
    let level = buf.get_u32_le() as usize;
    let special = buf.get_u8() != 0;
    let ntt_form = buf.get_u8() != 0;
    let comps = buf.get_u32_le() as usize;
    if comps != level + special as usize {
        return Err(WireError(format!(
            "component count {comps} inconsistent with level {level}"
        )));
    }
    if comps > 64 {
        return Err(WireError(format!("implausible component count {comps}")));
    }
    let mut data = Vec::with_capacity(comps);
    for _ in 0..comps {
        if buf.remaining() < 4 {
            return Err(WireError("truncated component header".into()));
        }
        let n = buf.get_u32_le() as usize;
        if !n.is_power_of_two() || n > 1 << 16 {
            return Err(WireError(format!("implausible ring degree {n}")));
        }
        if buf.remaining() < n * 8 {
            return Err(WireError("truncated component data".into()));
        }
        let mut comp = Vec::with_capacity(n);
        for _ in 0..n {
            comp.push(buf.get_u64_le());
        }
        data.push(comp);
    }
    Ok(RnsPoly { level, special, ntt_form, data })
}

/// Serializes a ciphertext into a standalone binary payload.
pub fn encode_ciphertext(ct: &RnsCiphertext) -> Bytes {
    let (c0, c1, scale) = ct.parts();
    let mut buf = BytesMut::with_capacity(16 + 8 * 2 * c0.data.len() * c0.data[0].len());
    buf.put_u32_le(MAGIC);
    buf.put_u8(VERSION);
    buf.put_f64_le(scale);
    write_poly(c0, &mut buf);
    write_poly(c1, &mut buf);
    buf.freeze()
}

/// Deserializes a ciphertext produced by [`encode_ciphertext`].
///
/// # Errors
///
/// Returns [`WireError`] on wrong magic/version or any structural
/// inconsistency (the decoder never panics on attacker-controlled input).
pub fn decode_ciphertext(payload: &[u8]) -> Result<RnsCiphertext, WireError> {
    let mut buf = Bytes::copy_from_slice(payload);
    if buf.remaining() < 13 {
        return Err(WireError("payload too short".into()));
    }
    let magic = buf.get_u32_le();
    if magic != MAGIC {
        return Err(WireError(format!("bad magic {magic:#x}")));
    }
    let version = buf.get_u8();
    if version != VERSION {
        return Err(WireError(format!("unsupported version {version}")));
    }
    let scale = buf.get_f64_le();
    if !(scale.is_finite() && scale >= 1.0) {
        return Err(WireError(format!("implausible scale {scale}")));
    }
    let c0 = read_poly(&mut buf)?;
    let c1 = read_poly(&mut buf)?;
    if c0.level != c1.level || c0.data.first().map(|c| c.len()) != c1.data.first().map(|c| c.len())
    {
        return Err(WireError("component polynomials disagree".into()));
    }
    if buf.has_remaining() {
        return Err(WireError(format!("{} trailing bytes", buf.remaining())));
    }
    Ok(RnsCiphertext::from_parts(c0, c1, scale))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rns::RnsCkks;
    use chet_hisa::{EncryptionParams, Hisa, RotationKeyPolicy, SecurityLevel};

    fn scheme() -> RnsCkks {
        let params = EncryptionParams::rns_ckks(2048, 40, 2)
            .with_security(SecurityLevel::Insecure);
        RnsCkks::new(&params, &RotationKeyPolicy::PowersOfTwo, 5)
    }

    #[test]
    fn roundtrip_preserves_plaintext() {
        let mut h = scheme();
        let pt = h.encode(&[1.25, -3.5, 42.0], 2f64.powi(28));
        let ct = h.encrypt(&pt);
        let bytes = encode_ciphertext(&ct);
        let back = decode_ciphertext(&bytes).expect("roundtrip decodes");
        let out_pt = h.decrypt(&back);
        let out = h.decode(&out_pt);
        assert!((out[0] - 1.25).abs() < 1e-3);
        assert!((out[1] + 3.5).abs() < 1e-3);
        assert!((out[2] - 42.0).abs() < 1e-3);
    }

    #[test]
    fn decoded_ciphertext_supports_further_ops() {
        let mut h = scheme();
        let pt = h.encode(&[2.0], 2f64.powi(28));
        let ct = h.encrypt(&pt);
        let back = decode_ciphertext(&encode_ciphertext(&ct)).unwrap();
        let sum = h.add(&ct, &back);
        let out_pt = h.decrypt(&sum);
        assert!((h.decode(&out_pt)[0] - 4.0).abs() < 1e-3);
    }

    #[test]
    fn rejects_bad_magic_and_truncation() {
        let mut h = scheme();
        let pt = h.encode(&[1.0], 2f64.powi(28));
        let ct = h.encrypt(&pt);
        let bytes = encode_ciphertext(&ct);

        let mut bad = bytes.to_vec();
        bad[0] ^= 0xFF;
        assert!(decode_ciphertext(&bad).is_err(), "bad magic must fail");

        let truncated = &bytes[..bytes.len() / 2];
        assert!(decode_ciphertext(truncated).is_err(), "truncation must fail");

        let mut trailing = bytes.to_vec();
        trailing.push(0);
        assert!(decode_ciphertext(&trailing).is_err(), "trailing bytes must fail");
    }

    #[test]
    fn rejects_inconsistent_structure() {
        let mut h = scheme();
        let pt = h.encode(&[1.0], 2f64.powi(28));
        let ct = h.encrypt(&pt);
        let bytes = encode_ciphertext(&ct).to_vec();
        // Corrupt the declared component count of the first polynomial.
        // Header: magic(4) + version(1) + scale(8) + level(4) + special(1) +
        // ntt(1) → comps at offset 19.
        let mut bad = bytes.clone();
        bad[19] = bad[19].wrapping_add(1);
        assert!(decode_ciphertext(&bad).is_err());
    }
}
