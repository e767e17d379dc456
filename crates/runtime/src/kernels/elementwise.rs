//! Element-wise homomorphic kernels: polynomial activations and folded
//! batch normalization.

use super::{settle, KernelError, ScaleConfig};
use crate::ciphertensor::CipherTensor;
use crate::par;
use chet_hisa::Hisa;

/// The HE-compatible activation `f(x) = a·x² + b·x`, computed as
/// `x · (a·x + b)` — one scalar multiply plus one ciphertext multiply.
///
/// Zero slots stay zero (`f(0) = 0`), preserving the masking discipline.
/// Each ciphertext activates as an independent fan-out job.
pub fn try_hactivation<H: Hisa>(
    h: &mut H,
    input: &CipherTensor<H::Ct>,
    a: f64,
    b: f64,
    scales: &ScaleConfig,
) -> Result<CipherTensor<H::Ct>, KernelError> {
    let cts = par::try_fan_out(h, input.cts.len(), |h, i| {
        let ct = &input.cts[i];
        if a == 0.0 {
            // Degenerate linear activation.
            let y = h.try_mul_scalar(ct, b, scales.weight_scalar)?;
            return Ok(settle(h, y, scales.input)?);
        }
        let u = h.try_mul_scalar(ct, a, scales.weight_scalar)?;
        let u = settle(h, u, scales.input)?;
        let u = h.try_add_scalar(&u, b)?;
        let y = h.try_mul(&u, ct)?;
        Ok(settle(h, y, scales.input)?)
    })?;
    Ok(CipherTensor { layout: input.layout.clone(), cts })
}

/// Folded batch normalization `y_c = g_c · x_c + s_c` per channel: one
/// plaintext multiply (the per-channel scales) and one plaintext add, both
/// restricted to valid slot positions so junk slots stay zero.
/// Per-channel parameter length mismatches come back as [`KernelError`]
/// values. Each ciphertext normalizes as an independent fan-out job.
pub fn try_hbatch_norm<H: Hisa>(
    h: &mut H,
    input: &CipherTensor<H::Ct>,
    scale: &[f64],
    shift: &[f64],
    scales: &ScaleConfig,
) -> Result<CipherTensor<H::Ct>, KernelError> {
    let layout = &input.layout;
    if scale.len() != layout.channels {
        return Err(KernelError::new(
            "batch_norm",
            format!("scale length {} must equal channels {}", scale.len(), layout.channels),
        ));
    }
    if shift.len() != layout.channels {
        return Err(KernelError::new(
            "batch_norm",
            format!("shift length {} must equal channels {}", shift.len(), layout.channels),
        ));
    }
    let cts = par::try_fan_out(h, input.cts.len(), |h, ct_idx| {
        let ct = &input.cts[ct_idx];
        // Writes `per_channel[c]` at every valid slot of channel `c`.
        let spread = |per_channel: &[f64], vec: &mut [f64]| {
            for (c, &v) in per_channel.iter().enumerate() {
                if c / layout.channels_per_ct != ct_idx {
                    continue;
                }
                for y in 0..layout.height {
                    for x in 0..layout.width {
                        let (_, slot) = layout.slot_of(c, y, x);
                        vec[slot] = v;
                    }
                }
            }
        };
        let gpt = super::encode_tiled(h, layout.slots, scales.weight_plain, |v| spread(scale, v))?;
        let t = h.try_mul_plain(ct, &gpt)?;
        let t = settle(h, t, scales.input)?;
        let cur = h.scale_of(&t);
        let spt = super::encode_tiled(h, layout.slots, cur, |v| spread(shift, v))?;
        Ok(h.try_add_plain(&t, &spt)?)
    })?;
    Ok(CipherTensor { layout: layout.clone(), cts })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ciphertensor::{decrypt_tensor, try_encrypt_tensor};
    use crate::layout::{Layout, LayoutKind};
    use chet_ckks::sim::SimCkks;
    use chet_hisa::{EncryptionParams, RotationKeyPolicy};
    use chet_tensor::{ops, Tensor};

    fn sim() -> SimCkks {
        let params = EncryptionParams::rns_ckks(8192, 40, 6);
        SimCkks::new(&params, &RotationKeyPolicy::PowersOfTwo, 5).without_noise()
    }

    fn layouts(c: usize, ih: usize, iw: usize, slots: usize) -> Vec<Layout> {
        vec![Layout::hw(c, ih, iw, 0, slots), Layout::chw(c, ih, iw, 0, slots)]
    }

    #[test]
    fn activation_matches_reference() {
        for layout in layouts(2, 3, 3, 4096) {
            let mut h = sim();
            let scales = ScaleConfig::default();
            let input = Tensor::from_fn(vec![2, 3, 3], |i| (i[0] + i[1] + i[2]) as f64 * 0.3 - 1.0);
            let enc = try_encrypt_tensor(&mut h, &input, &layout, scales.input).unwrap();
            let out = try_hactivation(&mut h, &enc, 0.25, 0.5, &scales).unwrap();
            let got = decrypt_tensor(&mut h, &out);
            let want = ops::activation(&input, 0.25, 0.5);
            assert!(got.max_abs_diff(&want) < 1e-5, "{:?}", layout.kind);
        }
    }

    #[test]
    fn linear_activation() {
        let mut h = sim();
        let scales = ScaleConfig::default();
        let input = Tensor::from_fn(vec![1, 2, 2], |i| i[1] as f64 + 1.0);
        let layout = Layout::hw(1, 2, 2, 0, h.slots());
        let enc = try_encrypt_tensor(&mut h, &input, &layout, scales.input).unwrap();
        let out = try_hactivation(&mut h, &enc, 0.0, 2.0, &scales).unwrap();
        let got = decrypt_tensor(&mut h, &out);
        let want = ops::activation(&input, 0.0, 2.0);
        assert!(got.max_abs_diff(&want) < 1e-6);
    }

    #[test]
    fn activation_keeps_junk_slots_zero() {
        let mut h = sim();
        let scales = ScaleConfig::default();
        let input = Tensor::from_fn(vec![1, 2, 2], |_| 1.0);
        let layout = Layout::hw(1, 2, 2, 2, h.slots());
        let enc = try_encrypt_tensor(&mut h, &input, &layout, scales.input).unwrap();
        let out = try_hactivation(&mut h, &enc, 0.5, 1.0, &scales).unwrap();
        // Inspect raw slots: margin slot 2 must still be zero.
        let pt = h.decrypt(&out.cts[0]);
        let raw = h.decode(&pt);
        assert!(raw[2].abs() < 1e-9, "junk slot leaked {}", raw[2]);
    }

    #[test]
    fn batch_norm_matches_reference() {
        for layout in layouts(3, 2, 2, 4096) {
            let mut h = sim();
            let scales = ScaleConfig::default();
            let input = Tensor::from_fn(vec![3, 2, 2], |i| i[0] as f64 - 1.0 + 0.1 * i[2] as f64);
            let g = [0.5, 2.0, -1.0];
            let s = [1.0, -0.5, 0.25];
            let enc = try_encrypt_tensor(&mut h, &input, &layout, scales.input).unwrap();
            let out = try_hbatch_norm(&mut h, &enc, &g, &s, &scales).unwrap();
            let got = decrypt_tensor(&mut h, &out);
            let want = ops::try_batch_norm(&input, &g, &s).unwrap();
            assert!(got.max_abs_diff(&want) < 1e-5, "{:?}", layout.kind);
        }
    }

    #[test]
    fn batch_norm_shift_does_not_leak_into_junk() {
        let mut h = sim();
        let scales = ScaleConfig::default();
        let input = Tensor::from_fn(vec![1, 2, 2], |_| 1.0);
        let layout = Layout::hw(1, 2, 2, 2, h.slots());
        let enc = try_encrypt_tensor(&mut h, &input, &layout, scales.input).unwrap();
        let out = try_hbatch_norm(&mut h, &enc, &[1.0], &[5.0], &scales).unwrap();
        let pt = h.decrypt(&out.cts[0]);
        let raw = h.decode(&pt);
        assert!(raw[2].abs() < 1e-9, "shift leaked into junk slot: {}", raw[2]);
        assert!((raw[0] - 6.0).abs() < 1e-6);
    }

    #[test]
    fn activation_preserves_layout() {
        let mut h = sim();
        let scales = ScaleConfig::default();
        let input = Tensor::zeros(vec![4, 3, 3]);
        let layout = Layout::chw(4, 3, 3, 0, h.slots());
        assert_eq!(layout.kind, LayoutKind::CHW);
        let enc = try_encrypt_tensor(&mut h, &input, &layout, scales.input).unwrap();
        let out = try_hactivation(&mut h, &enc, 0.1, 1.0, &scales).unwrap();
        assert_eq!(out.layout, layout);
    }
}
