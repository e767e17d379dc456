//! Layout conversion between HW and CHW (repacking).
//!
//! Conversions are what the hybrid layout policies (paper §5.3: HW-conv/
//! CHW-rest and CHW-fc/HW-before) pay at policy boundaries; the cost model
//! prices them against the per-op savings.

use super::{apply_mask, KernelError, ScaleConfig};
use crate::ciphertensor::CipherTensor;
use crate::layout::{prev_power_of_two, LayoutKind};
use crate::par;
use chet_hisa::Hisa;

/// Repacks a [`CipherTensor`] into the target layout kind (a copy when it
/// already matches).
///
/// * HW → CHW: rotate each channel grid into its block (rotations + adds).
/// * CHW → HW: mask out each channel block, rotate to the origin (one mask
///   multiply + rotation per channel).
///
/// The repacking fans out per source channel (CHW → HW) or per source
/// ciphertext (HW → CHW), and observes cancellation at job boundaries.
pub fn try_convert_layout<H: Hisa>(
    h: &mut H,
    input: &CipherTensor<H::Ct>,
    target: LayoutKind,
    scales: &ScaleConfig,
) -> Result<CipherTensor<H::Ct>, KernelError> {
    let lin = &input.layout;
    if lin.kind == target {
        let cts = par::try_fan_out(h, input.cts.len(), |h, i| Ok(h.copy(&input.cts[i])))?;
        return Ok(CipherTensor { layout: lin.clone(), cts });
    }
    match target {
        LayoutKind::CHW => {
            // HW → CHW: each source ciphertext holds one zero-padded grid.
            let mut layout = lin.clone();
            layout.kind = LayoutKind::CHW;
            layout.channels_per_ct = prev_power_of_two(lin.slots / lin.c_stride)
                .max(1)
                .min(lin.channels);
            // Per-channel placement rotations fan out; the overlap-add into
            // destination blocks folds on the parent in channel order.
            let pieces: Vec<H::Ct> = par::try_fan_out(h, input.cts.len(), |h, c| {
                let block = c % layout.channels_per_ct;
                Ok(if block == 0 {
                    h.copy(&input.cts[c])
                } else {
                    h.try_rot_right(&input.cts[c], block * layout.c_stride)?
                })
            })?;
            let mut cts: Vec<Option<H::Ct>> = vec![None; layout.num_cts()];
            for (c, piece) in pieces.into_iter().enumerate() {
                let dest_ct = c / layout.channels_per_ct;
                cts[dest_ct] = Some(match cts[dest_ct].take() {
                    None => piece,
                    Some(prev) => h.try_add(&prev, &piece)?,
                });
            }
            Ok(CipherTensor {
                layout,
                cts: cts.into_iter().map(|c| c.expect("populated")).collect(),
            })
        }
        LayoutKind::HW => {
            // CHW → HW: isolate each channel block and move it to the origin.
            let mut layout = lin.clone();
            layout.kind = LayoutKind::HW;
            layout.channels_per_ct = 1;
            let mut single = lin.clone();
            single.channels = 1;
            single.channels_per_ct = 1;
            let cts = par::try_fan_out(h, lin.channels, |h, c| {
                let (src_ct, base_slot) = lin.slot_of(c, 0, 0);
                let moved = if base_slot == 0 {
                    h.copy(&input.cts[src_ct])
                } else {
                    h.try_rot_left(&input.cts[src_ct], base_slot)?
                };
                Ok(apply_mask(h, &moved, single.slots, |m| single.fill_mask(0, m), scales)?)
            })?;
            Ok(CipherTensor { layout, cts })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ciphertensor::{decrypt_tensor, encrypt_tensor};
    use crate::layout::Layout;
    use chet_ckks::sim::SimCkks;
    use chet_hisa::{EncryptionParams, Hisa, RotationKeyPolicy};
    use chet_tensor::Tensor;

    fn sim() -> SimCkks {
        let params = EncryptionParams::rns_ckks(8192, 40, 6);
        SimCkks::new(&params, &RotationKeyPolicy::PowersOfTwo, 5).without_noise()
    }

    fn ramp(c: usize, hh: usize, ww: usize) -> Tensor {
        Tensor::from_fn(vec![c, hh, ww], |i| (i[0] * 100 + i[1] * 10 + i[2]) as f64 * 0.01)
    }

    #[test]
    fn hw_to_chw_roundtrip() {
        let mut h = sim();
        let scales = ScaleConfig::default();
        let t = ramp(5, 4, 4);
        let l = Layout::hw(5, 4, 4, 1, h.slots());
        let enc = encrypt_tensor(&mut h, &t, &l, scales.input);
        let chw = try_convert_layout(&mut h, &enc, LayoutKind::CHW, &scales).unwrap();
        assert_eq!(chw.layout.kind, LayoutKind::CHW);
        assert!(chw.num_cts() < enc.num_cts());
        let got = decrypt_tensor(&mut h, &chw);
        assert!(got.max_abs_diff(&t) < 1e-9);
    }

    #[test]
    fn chw_to_hw_roundtrip() {
        let mut h = sim();
        let scales = ScaleConfig::default();
        let t = ramp(4, 3, 3);
        let l = Layout::chw(4, 3, 3, 0, h.slots());
        let enc = encrypt_tensor(&mut h, &t, &l, scales.input);
        let hw = try_convert_layout(&mut h, &enc, LayoutKind::HW, &scales).unwrap();
        assert_eq!(hw.layout.kind, LayoutKind::HW);
        assert_eq!(hw.num_cts(), 4);
        let got = decrypt_tensor(&mut h, &hw);
        assert!(got.max_abs_diff(&t) < 1e-3);
    }

    #[test]
    fn double_conversion_is_identity() {
        let mut h = sim();
        let scales = ScaleConfig::default();
        let t = ramp(3, 4, 4);
        let l = Layout::hw(3, 4, 4, 0, h.slots());
        let enc = encrypt_tensor(&mut h, &t, &l, scales.input);
        let chw = try_convert_layout(&mut h, &enc, LayoutKind::CHW, &scales).unwrap();
        let back = try_convert_layout(&mut h, &chw, LayoutKind::HW, &scales).unwrap();
        let got = decrypt_tensor(&mut h, &back);
        assert!(got.max_abs_diff(&t) < 1e-3);
    }

    #[test]
    fn same_kind_is_copy() {
        let mut h = sim();
        let scales = ScaleConfig::default();
        let t = ramp(2, 2, 2);
        let l = Layout::hw(2, 2, 2, 0, h.slots());
        let enc = encrypt_tensor(&mut h, &t, &l, scales.input);
        let out = try_convert_layout(&mut h, &enc, LayoutKind::HW, &scales).unwrap();
        assert_eq!(out.layout, enc.layout);
        let got = decrypt_tensor(&mut h, &out);
        assert!(got.max_abs_diff(&t) < 1e-9);
    }
}
