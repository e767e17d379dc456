//! Binary (de)serialization of [`CompiledCircuit`] — the payload format of
//! the serving tier's crash-safe artifact store.
//!
//! The encoding builds on `chet_hisa::serial`: deterministic little-endian
//! layout, one-byte enum tags, length prefixes validated before
//! allocation, and a leading format-version byte so future layout changes
//! fail loudly ([`CodecError::BadTag`]) instead of misparsing. Floating
//! point travels as IEEE-754 bit patterns, so encode→decode is exact and
//! `encode(decode(bytes)) == bytes` — the property that makes checksums
//! over the encoding trustworthy.
//!
//! Corruption anywhere in the byte stream surfaces as a typed
//! [`CodecError`]; the store layer additionally wraps every record in a
//! checksum, so decode errors here are the second line of defence (they
//! catch logic-level corruption like an undefined enum tag even if a
//! checksum were to collide).

use crate::compiler::CompiledCircuit;
use crate::layout::{LayoutPolicy, ALL_POLICIES};
use crate::params::AnalysisOutcome;
use chet_hisa::cost::ALL_OPS;
use chet_hisa::serial::{
    get_params, get_rotation_keys, put_params, put_rotation_keys, CodecError, Reader, Writer,
};
use chet_runtime::exec::ExecPlan;
use chet_runtime::kernels::ScaleConfig;
use chet_runtime::layout::LayoutKind;
use std::collections::{BTreeSet, HashMap};

/// Format version written at the head of every encoded artifact. Bump on
/// any layout change; decoders refuse versions they don't know.
///
/// Version history: v1 = original layout; v2 appends the pruned-rotation
/// list (the `CHET-N002` provenance). v1 payloads still decode (with an
/// empty list), so stores written before the bump remain readable.
pub const ARTIFACT_FORMAT_VERSION: u8 = 2;

fn put_scales(w: &mut Writer, s: &ScaleConfig) {
    w.put_f64(s.input);
    w.put_f64(s.weight_plain);
    w.put_f64(s.weight_scalar);
    w.put_f64(s.mask);
}

/// One fixed-point scale: every backend asserts an encoding scale is finite
/// and at least 1, so decoding refuses anything else.
fn get_scale(r: &mut Reader<'_>, what: &'static str) -> Result<f64, CodecError> {
    let at = r.position();
    let scale = r.get_f64(what)?;
    if scale.is_finite() && scale >= 1.0 {
        Ok(scale)
    } else {
        Err(CodecError::OutOfRange { at, what, bits: scale.to_bits() })
    }
}

fn get_scales(r: &mut Reader<'_>) -> Result<ScaleConfig, CodecError> {
    Ok(ScaleConfig {
        input: get_scale(r, "ScaleConfig.input")?,
        weight_plain: get_scale(r, "ScaleConfig.weight_plain")?,
        weight_scalar: get_scale(r, "ScaleConfig.weight_scalar")?,
        mask: get_scale(r, "ScaleConfig.mask")?,
    })
}

/// Encodes the four fixed-point scales. Public because the serve store
/// persists the service's working scales next to the artifact.
pub fn encode_scales(s: &ScaleConfig) -> Vec<u8> {
    let mut w = Writer::new();
    put_scales(&mut w, s);
    w.into_bytes()
}

/// Decodes [`encode_scales`] output.
pub fn decode_scales(bytes: &[u8]) -> Result<ScaleConfig, CodecError> {
    let mut r = Reader::new(bytes);
    let s = get_scales(&mut r)?;
    r.finish()?;
    Ok(s)
}

fn put_plan(w: &mut Writer, plan: &ExecPlan) {
    w.put_u32(plan.layouts.len() as u32);
    for k in &plan.layouts {
        w.put_u8(match k {
            LayoutKind::HW => 0,
            LayoutKind::CHW => 1,
        });
    }
    put_scales(w, &plan.scales);
    w.put_usize(plan.margin);
}

fn get_plan(r: &mut Reader<'_>) -> Result<ExecPlan, CodecError> {
    let at = r.position();
    let len = r.get_u32("ExecPlan.layouts")? as usize;
    if len > r.remaining() {
        return Err(CodecError::BadLength { at, what: "ExecPlan.layouts", len });
    }
    let mut layouts = Vec::with_capacity(len);
    for _ in 0..len {
        let at = r.position();
        layouts.push(match r.get_u8("LayoutKind")? {
            0 => LayoutKind::HW,
            1 => LayoutKind::CHW,
            tag => return Err(CodecError::BadTag { at, what: "LayoutKind", tag }),
        });
    }
    Ok(ExecPlan { layouts, scales: get_scales(r)?, margin: r.get_usize("ExecPlan.margin")? })
}

fn policy_tag(p: LayoutPolicy) -> u8 {
    // ALL_POLICIES is the paper-ordered canonical list; its index is the tag.
    ALL_POLICIES.iter().position(|&q| q == p).unwrap_or(0) as u8
}

fn get_policy(r: &mut Reader<'_>) -> Result<LayoutPolicy, CodecError> {
    let at = r.position();
    let tag = r.get_u8("LayoutPolicy")?;
    ALL_POLICIES
        .get(tag as usize)
        .copied()
        .ok_or(CodecError::BadTag { at, what: "LayoutPolicy", tag })
}

fn put_outcome(w: &mut Writer, o: &AnalysisOutcome) {
    put_params(w, &o.params);
    w.put_u32(o.rotations.len() as u32);
    for &s in &o.rotations {
        w.put_usize(s);
    }
    w.put_f64(o.consumed_log2);
    w.put_f64(o.output_scale);
    // op_counts in canonical ALL_OPS order (HashMap iteration order is not
    // deterministic; the encoding must be).
    let counted: Vec<(u8, u64)> = ALL_OPS
        .iter()
        .enumerate()
        .filter_map(|(i, op)| o.op_counts.get(op).map(|&n| (i as u8, n)))
        .collect();
    w.put_u32(counted.len() as u32);
    for (tag, n) in counted {
        w.put_u8(tag);
        w.put_u64(n);
    }
}

fn get_outcome(r: &mut Reader<'_>) -> Result<AnalysisOutcome, CodecError> {
    let params = get_params(r)?;
    let at = r.position();
    let len = r.get_u32("AnalysisOutcome.rotations")? as usize;
    if len.saturating_mul(8) > r.remaining() {
        return Err(CodecError::BadLength { at, what: "AnalysisOutcome.rotations", len });
    }
    let mut rotations = BTreeSet::new();
    for _ in 0..len {
        rotations.insert(r.get_usize("AnalysisOutcome.rotations")?);
    }
    let consumed_log2 = r.get_f64("AnalysisOutcome.consumed_log2")?;
    let output_scale = r.get_f64("AnalysisOutcome.output_scale")?;
    let at = r.position();
    let len = r.get_u32("AnalysisOutcome.op_counts")? as usize;
    if len.saturating_mul(9) > r.remaining() {
        return Err(CodecError::BadLength { at, what: "AnalysisOutcome.op_counts", len });
    }
    let mut op_counts = HashMap::new();
    for _ in 0..len {
        let at = r.position();
        let tag = r.get_u8("HisaOp")?;
        let op = *ALL_OPS
            .get(tag as usize)
            .ok_or(CodecError::BadTag { at, what: "HisaOp", tag })?;
        op_counts.insert(op, r.get_u64("AnalysisOutcome.op_counts")?);
    }
    Ok(AnalysisOutcome { params, rotations, consumed_log2, output_scale, op_counts })
}

/// Encodes a [`CompiledCircuit`] into the versioned artifact byte format.
pub fn encode_compiled(c: &CompiledCircuit) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u8(ARTIFACT_FORMAT_VERSION);
    put_plan(&mut w, &c.plan);
    put_params(&mut w, &c.params);
    put_rotation_keys(&mut w, &c.rotation_keys);
    w.put_u8(policy_tag(c.policy));
    w.put_f64(c.estimated_cost);
    put_outcome(&mut w, &c.outcome);
    w.put_f64(c.output_precision);
    w.put_u32(c.pruned_rotations.len() as u32);
    for &s in &c.pruned_rotations {
        w.put_usize(s);
    }
    w.into_bytes()
}

/// Decodes [`encode_compiled`] output, rejecting unknown format versions,
/// truncation, and undefined enum tags as typed [`CodecError`]s.
pub fn decode_compiled(bytes: &[u8]) -> Result<CompiledCircuit, CodecError> {
    let mut r = Reader::new(bytes);
    let at = r.position();
    let version = r.get_u8("artifact format version")?;
    if version == 0 || version > ARTIFACT_FORMAT_VERSION {
        return Err(CodecError::BadTag { at, what: "artifact format version", tag: version });
    }
    let mut c = CompiledCircuit {
        plan: get_plan(&mut r)?,
        params: get_params(&mut r)?,
        rotation_keys: get_rotation_keys(&mut r)?,
        policy: get_policy(&mut r)?,
        estimated_cost: r.get_f64("CompiledCircuit.estimated_cost")?,
        outcome: get_outcome(&mut r)?,
        output_precision: r.get_f64("CompiledCircuit.output_precision")?,
        pruned_rotations: Vec::new(),
    };
    if version >= 2 {
        let at = r.position();
        let len = r.get_u32("CompiledCircuit.pruned_rotations")? as usize;
        if len.saturating_mul(8) > r.remaining() {
            return Err(CodecError::BadLength {
                at,
                what: "CompiledCircuit.pruned_rotations",
                len,
            });
        }
        for _ in 0..len {
            c.pruned_rotations.push(r.get_usize("CompiledCircuit.pruned_rotations")?);
        }
    }
    r.finish()?;
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::Compiler;
    use chet_hisa::params::SchemeKind;
    use chet_tensor::circuit::CircuitBuilder;
    use chet_tensor::ops::Padding;
    use chet_tensor::Tensor;

    fn compiled() -> CompiledCircuit {
        let mut b = CircuitBuilder::new();
        let x = b.input(vec![1, 6, 6]);
        let w = Tensor::from_fn(vec![2, 1, 3, 3], |i| (i[2] * 3 + i[3]) as f64 * 0.05 - 0.1);
        let c = b.conv2d(x, w, Some(vec![0.1, -0.1]), 1, Padding::Valid);
        let a = b.activation(c, 0.2, 0.9);
        let g = b.global_avg_pool(a);
        let circuit = b.build(g);
        let scales = ScaleConfig::REFERENCE;
        let (compiled, _) = Compiler::new(SchemeKind::RnsCkks)
            .with_output_precision(2f64.powi(20))
            .compile_checked(&circuit, &scales)
            .expect("test circuit compiles");
        compiled
    }

    #[test]
    fn artifact_roundtrip_is_exact() {
        let c = compiled();
        let bytes = encode_compiled(&c);
        let back = decode_compiled(&bytes).expect("decode");
        // Field-by-field equality (CompiledCircuit has no PartialEq).
        assert_eq!(back.plan.layouts, c.plan.layouts);
        assert_eq!(back.plan.margin, c.plan.margin);
        assert_eq!(back.plan.scales.input.to_bits(), c.plan.scales.input.to_bits());
        assert_eq!(back.params, c.params);
        assert_eq!(back.rotation_keys, c.rotation_keys);
        assert_eq!(back.policy, c.policy);
        assert_eq!(back.estimated_cost.to_bits(), c.estimated_cost.to_bits());
        assert_eq!(back.outcome.rotations, c.outcome.rotations);
        assert_eq!(back.outcome.op_counts, c.outcome.op_counts);
        assert_eq!(back.output_precision.to_bits(), c.output_precision.to_bits());
        assert_eq!(back.pruned_rotations, c.pruned_rotations);
        // Canonical form: re-encoding reproduces the identical bytes.
        assert_eq!(encode_compiled(&back), bytes);
    }

    #[test]
    fn pruned_rotations_roundtrip() {
        let mut c = compiled();
        c.pruned_rotations = vec![3, 7, 1024];
        let back = decode_compiled(&encode_compiled(&c)).expect("decode");
        assert_eq!(back.pruned_rotations, vec![3, 7, 1024]);
    }

    #[test]
    fn version_1_artifacts_still_decode() {
        // A v1 payload is a v2 payload minus the trailing pruned-rotation
        // list (4-byte empty length prefix), with the version byte at 1.
        let c = compiled();
        assert!(c.pruned_rotations.is_empty(), "compiler output prunes nothing");
        let mut bytes = encode_compiled(&c);
        bytes[0] = 1;
        bytes.truncate(bytes.len() - 4);
        let back = decode_compiled(&bytes).expect("v1 decode");
        assert_eq!(back.rotation_keys, c.rotation_keys);
        assert!(back.pruned_rotations.is_empty());
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = encode_compiled(&compiled());
        for cut in 0..bytes.len() {
            assert!(
                decode_compiled(&bytes[..cut]).is_err(),
                "decode of {cut}-byte prefix must fail"
            );
        }
    }

    #[test]
    fn unknown_format_version_is_rejected() {
        let mut bytes = encode_compiled(&compiled());
        bytes[0] = 0xEE;
        assert!(matches!(
            decode_compiled(&bytes),
            Err(CodecError::BadTag { what: "artifact format version", .. })
        ));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = encode_compiled(&compiled());
        bytes.push(0);
        assert!(matches!(decode_compiled(&bytes), Err(CodecError::TrailingBytes { .. })));
    }

    #[test]
    fn non_finite_and_sub_unit_scales_fail_to_decode() {
        for bad in [0.5, f64::NAN, f64::INFINITY] {
            for field in 0..4 {
                let mut s = ScaleConfig::REFERENCE;
                *[&mut s.input, &mut s.weight_plain, &mut s.weight_scalar, &mut s.mask][field] =
                    bad;
                let err = decode_scales(&encode_scales(&s)).expect_err("bad scale decoded");
                assert!(matches!(err, CodecError::OutOfRange { at, .. } if at == 8 * field));
            }
        }
    }

    #[test]
    fn artifact_with_a_sub_unit_scalar_scale_fails_to_decode() {
        let mut c = compiled();
        c.plan.scales.weight_scalar = 0.5;
        let err = decode_compiled(&encode_compiled(&c)).expect_err("bad artifact decoded");
        assert!(
            matches!(err, CodecError::OutOfRange { what: "ScaleConfig.weight_scalar", .. }),
            "{err}"
        );
    }
}
