//! Compact binary wire format for RNS-CKKS ciphertexts.
//!
//! In the paper's Figure 3 deployment the encrypted image travels from the
//! client to the server and the encrypted prediction travels back. This
//! module provides a versioned, length-checked binary codec for that hop
//! (parameters travel inside the compiled artifact's codec, and keys are
//! never serialized: the serving store persists the seed and rotation
//! steps they regenerate from, its `KeyBundleRecord`; ciphertexts are the
//! high-volume payload and get a dedicated format). It is written with
//! `chet_hisa::serial`'s [`Writer`] and [`Reader`], so it shares their
//! little-endian conventions and their [`CodecError`].
//!
//! Layout: magic `CHCT` as a `u32`, version byte, scale as `f64` bits, then
//! `c0` and `c1`, each as `level: u32`, `special: u8`, `ntt_form: u8`,
//! limb count `u32` and per limb its degree `u32` and residues as `u64`.
//! The decoder is total: it rejects every payload that [`encode_ciphertext`]
//! would not produce byte for byte from the ciphertext it returns.

use super::poly::RnsPoly;
use super::scheme::RnsCiphertext;
use chet_hisa::serial::{CodecError, Reader, Writer};

/// Format magic (`CHCT` = CHet CipherText).
const MAGIC: u32 = 0x43484354;
/// Current format version.
const VERSION: u8 = 1;

fn write_poly(p: &RnsPoly, w: &mut Writer) {
    w.put_u32(p.level as u32);
    w.put_u8(p.special as u8);
    w.put_u8(p.ntt_form as u8);
    w.put_u32(p.data.len() as u32);
    for comp in &p.data {
        w.put_u32(comp.len() as u32);
        for &v in comp {
            w.put_u64(v);
        }
    }
}

/// A flag byte; anything but 0 or 1 would not re-encode to itself. When
/// `want` is given (the `c1` read), the flag must also match `c0`'s.
fn get_flag(
    r: &mut Reader<'_>,
    what: &'static str,
    want: Option<bool>,
) -> Result<bool, CodecError> {
    let at = r.position();
    let tag = r.get_u8(what)?;
    match (tag, want) {
        (0 | 1, None) => Ok(tag == 1),
        (0 | 1, Some(w)) if (tag == 1) == w => Ok(w),
        _ => Err(CodecError::BadTag { at, what, tag }),
    }
}

/// Reads one polynomial. `like` is `c0` when reading `c1`: the two must
/// agree on level, flags and degree.
fn read_poly(r: &mut Reader<'_>, like: Option<&RnsPoly>) -> Result<RnsPoly, CodecError> {
    let at = r.position();
    let level = r.get_u32("RnsPoly.level")? as usize;
    if like.is_some_and(|c0| c0.level != level) {
        return Err(CodecError::BadLength { at, what: "RnsPoly.level", len: level });
    }
    let special = get_flag(r, "RnsPoly.special", like.map(|c0| c0.special))?;
    let ntt_form = get_flag(r, "RnsPoly.ntt_form", like.map(|c0| c0.ntt_form))?;
    let at = r.position();
    let comps = r.get_u32("RnsPoly.limbs")? as usize;
    if comps == 0 || comps > 64 || comps != level + special as usize {
        return Err(CodecError::BadLength { at, what: "RnsPoly.limbs", len: comps });
    }
    let mut degree = like.map(|c0| c0.data[0].len());
    let mut data = Vec::with_capacity(comps);
    for _ in 0..comps {
        let at = r.position();
        let n = r.get_u32("RnsPoly.degree")? as usize;
        let ragged = degree.is_some_and(|d| d != n);
        if ragged || !n.is_power_of_two() || n > 1 << 16 || n * 8 > r.remaining() {
            return Err(CodecError::BadLength { at, what: "RnsPoly.degree", len: n });
        }
        degree = Some(n);
        let mut comp = Vec::with_capacity(n);
        for _ in 0..n {
            comp.push(r.get_u64("RnsPoly.residue")?);
        }
        data.push(comp);
    }
    Ok(RnsPoly { level, special, ntt_form, data })
}

/// Encodes a ciphertext as a standalone binary payload.
pub fn encode_ciphertext(ct: &RnsCiphertext) -> Vec<u8> {
    let (c0, c1, scale) = ct.parts();
    let mut w = Writer::new();
    w.put_u32(MAGIC);
    w.put_u8(VERSION);
    w.put_f64(scale);
    write_poly(c0, &mut w);
    write_poly(c1, &mut w);
    w.into_bytes()
}

/// Decodes a ciphertext produced by [`encode_ciphertext`].
///
/// # Errors
///
/// Returns [`CodecError`] on wrong magic/version, truncation, trailing
/// bytes or any structural inconsistency: a polynomial without limbs,
/// ragged limb degrees, a flag byte other than 0 or 1, or `c0` and `c1`
/// disagreeing on level, flags or degree. The decoder never panics on
/// attacker-controlled input.
pub fn decode_ciphertext(payload: &[u8]) -> Result<RnsCiphertext, CodecError> {
    let mut r = Reader::new(payload);
    for (at, want) in MAGIC.to_le_bytes().into_iter().enumerate() {
        let tag = r.get_u8("ciphertext magic")?;
        if tag != want {
            return Err(CodecError::BadTag { at, what: "ciphertext magic", tag });
        }
    }
    let at = r.position();
    let version = r.get_u8("ciphertext format version")?;
    if version != VERSION {
        return Err(CodecError::BadTag { at, what: "ciphertext format version", tag: version });
    }
    let at = r.position();
    let what = "RnsCiphertext.scale";
    let scale = r.get_f64(what)?;
    if !(scale.is_finite() && scale >= 1.0) {
        return Err(CodecError::OutOfRange { at, what, bits: scale.to_bits() });
    }
    let c0 = read_poly(&mut r, None)?;
    let c1 = read_poly(&mut r, Some(&c0))?;
    r.finish()?;
    Ok(RnsCiphertext::from_parts(c0, c1, scale))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rns::RnsCkks;
    use chet_hisa::serial::fnv1a64;
    use chet_hisa::{EncryptionParams, Hisa, RotationKeyPolicy, SecurityLevel};

    /// FNV-1a of [`pinned_payload`], recorded before the codec moved onto
    /// `chet_hisa::serial`: any change to the byte layout fails it.
    const WIRE_DIGEST: u64 = 0x5D35_7E7A_820B_F5CB;

    fn scheme() -> RnsCkks {
        let params = EncryptionParams::rns_ckks(2048, 40, 2)
            .with_security(SecurityLevel::Insecure);
        RnsCkks::new(&params, &RotationKeyPolicy::PowersOfTwo, 5)
    }

    fn pinned_payload() -> Vec<u8> {
        let mut h = scheme();
        let pt = h.try_encode(&[1.25, -3.5, 42.0], 2f64.powi(28)).unwrap();
        encode_ciphertext(&h.encrypt(&pt))
    }

    /// A payload whose two polynomials share one header and carry limbs of
    /// the given degrees, every residue zero.
    fn planted(level: u32, special: u8, ntt_form: u8, degrees: &[u32]) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u32(MAGIC);
        w.put_u8(VERSION);
        w.put_f64(2f64.powi(28));
        for _ in 0..2 {
            w.put_u32(level);
            w.put_u8(special);
            w.put_u8(ntt_form);
            w.put_u32(degrees.len() as u32);
            for &n in degrees {
                w.put_u32(n);
                (0..n).for_each(|_| w.put_u64(0));
            }
        }
        w.into_bytes()
    }

    #[test]
    fn roundtrip_preserves_plaintext() {
        let mut h = scheme();
        let pt = h.try_encode(&[1.25, -3.5, 42.0], 2f64.powi(28)).unwrap();
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
        let pt = h.try_encode(&[2.0], 2f64.powi(28)).unwrap();
        let ct = h.encrypt(&pt);
        let back = decode_ciphertext(&encode_ciphertext(&ct)).unwrap();
        let sum = h.try_add(&ct, &back).unwrap();
        let out_pt = h.decrypt(&sum);
        assert!((h.decode(&out_pt)[0] - 4.0).abs() < 1e-3);
    }

    #[test]
    fn wire_format_is_pinned() {
        let bytes = pinned_payload();
        assert_eq!(bytes.len(), 65_585);
        assert_eq!(fnv1a64(&bytes), WIRE_DIGEST, "ciphertext wire bytes moved");
    }

    #[test]
    fn rejects_bad_magic_and_truncation() {
        let bytes = pinned_payload();

        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(decode_ciphertext(&bad).is_err(), "bad magic must fail");

        for cut in 0..bytes.len() {
            assert!(decode_ciphertext(&bytes[..cut]).is_err(), "prefix of {cut} bytes decoded");
        }

        let mut trailing = bytes;
        trailing.push(0);
        assert!(decode_ciphertext(&trailing).is_err(), "trailing bytes must fail");
    }

    #[test]
    fn rejects_inconsistent_structure() {
        let bytes = pinned_payload();
        // Corrupt the declared component count of the first polynomial.
        // Header: magic(4) + version(1) + scale(8) + level(4) + special(1) +
        // ntt(1) → comps at offset 19.
        let mut bad = bytes.clone();
        bad[19] = bad[19].wrapping_add(1);
        assert!(decode_ciphertext(&bad).is_err());
    }

    #[test]
    fn rejects_polynomials_without_limbs() {
        let payload = planted(0, 0, 0, &[]);
        assert_eq!(payload.len(), 33);
        assert!(matches!(
            decode_ciphertext(&payload),
            Err(CodecError::BadLength { what: "RnsPoly.limbs", len: 0, .. })
        ));
    }

    #[test]
    fn rejects_ragged_limb_degrees() {
        assert!(decode_ciphertext(&planted(2, 0, 1, &[4, 4])).is_ok());
        assert!(matches!(
            decode_ciphertext(&planted(2, 0, 1, &[4, 8])),
            Err(CodecError::BadLength { what: "RnsPoly.degree", len: 8, .. })
        ));
    }

    #[test]
    fn rejects_flags_that_disagree_or_are_not_bits() {
        // Each polynomial is 10 header bytes plus two limbs of 4 + 4 * 8:
        // c0's flags sit at 17 and 18, c1's at 99 and 100.
        let ok = planted(2, 0, 1, &[4, 4]);
        assert_eq!(ok.len(), 13 + 2 * 82);
        for (at, v) in [(17, 2), (18, 7), (99, 1), (100, 0)] {
            let mut bad = ok.clone();
            bad[at] = v;
            assert!(
                matches!(decode_ciphertext(&bad), Err(CodecError::BadTag { at: a, .. }) if a == at),
                "flag byte {at} = {v} decoded"
            );
        }
    }

    /// Every single-byte XOR flip either fails to decode or decodes to a
    /// ciphertext that re-encodes to exactly the flipped bytes, so every
    /// accepted payload is canonical. Header and length bytes take all 255
    /// masks; residue bytes are copied verbatim, so one mask each covers
    /// their path.
    #[test]
    fn every_accepted_flip_is_canonical() {
        let bytes = pinned_payload();
        let poly = (bytes.len() - 13) / 2;
        let limb = 4 + 2048 * 8;
        assert_eq!(poly, 10 + 2 * limb);
        let is_residue = |i: usize| {
            let off = (i - 13) % poly;
            off >= 10 && (off - 10) % limb >= 4
        };
        let mut flipped = bytes.clone();
        let mut accepted = 0usize;
        for i in 0..bytes.len() {
            let masks = if i >= 13 && is_residue(i) { 0xFF..=0xFF } else { 1..=0xFF };
            for mask in masks {
                flipped[i] ^= mask;
                if let Ok(ct) = decode_ciphertext(&flipped) {
                    accepted += 1;
                    let again = encode_ciphertext(&ct);
                    assert!(again == flipped, "flip {mask:#x} at byte {i} is not canonical");
                }
                flipped[i] ^= mask;
            }
        }
        // At least every residue flip decodes (two polynomials, two limbs).
        assert!(accepted >= 2 * 2 * 2048 * 8);
    }
}
