//! Homomorphic 2-D convolution (paper Figure 4).
//!
//! Strategy depends on the *input* layout:
//!
//! * **HW** — rotate each channel ciphertext once per filter tap and
//!   multiply by the scalar weight (`mulScalar`, cheap under CKKS);
//!   `C·R·S` rotations shared across all `K` output channels.
//! * **CHW** — rotate each ciphertext once per tap, multiply by a plaintext
//!   carrying per-channel-block weights (`mulPlain`), then reduce across
//!   channel blocks with a rotate-add tree; `R·S + K·(log C + 1)`
//!   rotations.
//!
//! The *output* layout is chosen independently (the compiler's layout
//! assignment): each output channel's accumulated grid is masked to the
//! valid positions (the paper's `B = B' · Mask` step) and rotated into its
//! destination block.

use super::{apply_mask, rot_signed_many, KernelError, ScaleConfig};
use crate::ciphertensor::CipherTensor;
use crate::layout::{Layout, LayoutKind};
use crate::par;
use chet_hisa::{Hisa, HisaError};
use chet_tensor::ops::{conv_output_dim, Padding};
use chet_tensor::Tensor;

/// Builds the output layout for a convolution: a strided view of the input
/// frame, re-kinded to the requested output layout.
pub(crate) fn conv_output_layout(
    lin: &Layout,
    oh: usize,
    ow: usize,
    stride: usize,
    out_channels: usize,
    out_kind: LayoutKind,
) -> Layout {
    let mut out = lin.strided_view(oh, ow, stride, out_channels);
    out.kind = out_kind;
    out.channels_per_ct = match out_kind {
        LayoutKind::HW => 1,
        LayoutKind::CHW => {
            let capacity = crate::layout::prev_power_of_two(out.slots / out.c_stride).max(1);
            capacity.min(out_channels).max(1)
        }
    };
    out
}

/// Validates the convolution's input contract — the checks that used to be
/// panic sites. A malformed network must not crash a serving worker.
fn validate_conv(
    lin: &Layout,
    weights: &Tensor,
    bias: Option<&[f64]>,
    stride: usize,
    padding: Padding,
) -> Result<[usize; 4], KernelError> {
    let &[k_out, c_in, r, s] = weights.shape() else {
        return Err(KernelError::new(
            "conv2d",
            format!("conv weights must be KCRS (got a {}-D tensor)", weights.shape().len()),
        ));
    };
    if k_out == 0 || r == 0 || s == 0 {
        return Err(KernelError::new(
            "conv2d",
            format!("conv weights must be non-empty (got {:?})", weights.shape()),
        ));
    }
    if c_in != lin.channels {
        return Err(KernelError::new(
            "conv2d",
            format!("weight channels ({c_in}) must match input channels ({})", lin.channels),
        ));
    }
    if stride == 0 {
        return Err(KernelError::new("conv2d", "stride must be >= 1"));
    }
    if r > lin.height || s > lin.width {
        return Err(KernelError::new(
            "conv2d",
            format!(
                "kernel {r}x{s} larger than the {}x{} input frame",
                lin.height, lin.width
            ),
        ));
    }
    if let Some(b) = bias {
        if b.len() != k_out {
            return Err(KernelError::new(
                "conv2d",
                format!("bias length {} must equal output channels {k_out}", b.len()),
            ));
        }
    }
    if padding == Padding::Same {
        let margin = lin.h_stride / lin.w_stride.max(1) - lin.width;
        if margin + 1 < r {
            return Err(KernelError::new(
                "conv2d",
                format!("input layout margin {margin} too small for a {r}x{s} Same-padded kernel"),
            ));
        }
    }
    Ok([k_out, c_in, r, s])
}

/// Homomorphic convolution of a CHW [`CipherTensor`] with KCRS weights.
///
/// `mask_output` is the lazy-masking decision (§4.2: CHET "avoids or
/// delays performing these expensive operations"). Masking can only be
/// skipped when the output stays in HW layout with at most one channel
/// block per ciphertext — CHW placement must isolate each block — and when
/// no consumer needs zeroed junk slots (the executor's backward analysis
/// decides).
///
/// Input-contract violations — shape mismatches, or `Same` padding needing
/// more margin than the input layout reserved — come back as
/// [`KernelError`] values, so the executor (and the serving layer's worker
/// threads) can reject a malformed layer without dying.
#[allow(clippy::too_many_arguments)]
pub fn try_hconv2d_with_mask<H: Hisa>(
    h: &mut H,
    input: &CipherTensor<H::Ct>,
    weights: &Tensor,
    bias: Option<&[f64]>,
    stride: usize,
    padding: Padding,
    out_kind: LayoutKind,
    scales: &ScaleConfig,
    mask_output: bool,
) -> Result<CipherTensor<H::Ct>, KernelError> {
    let lin = &input.layout;
    let [k_out, _c_in, r, s] = validate_conv(lin, weights, bias, stride, padding)?;
    let (oh, pad_h) = conv_output_dim(lin.height, r, stride, padding);
    let (ow, pad_w) = conv_output_dim(lin.width, s, stride, padding);

    // Phase A: per-output-channel accumulation at the origin block.
    let accs: Vec<H::Ct> = match lin.kind {
        LayoutKind::HW => conv_accumulate_hw(h, input, weights, (pad_h, pad_w), scales)?,
        LayoutKind::CHW => conv_accumulate_chw(h, input, weights, (pad_h, pad_w), scales)?,
    };

    // Phase B: mask to valid output positions, place into the output layout.
    let out_layout = conv_output_layout(lin, oh, ow, stride, k_out, out_kind);
    let mut grid_mask_layout = out_layout.clone();
    grid_mask_layout.channels = 1;
    grid_mask_layout.channels_per_ct = 1;

    // Skipping the mask is only sound when no block placement happens
    // (placement overlap-adds rotated junk into other blocks' valid slots).
    let must_mask = mask_output || out_layout.channels_per_ct > 1;
    // Mask + placement rotation fan out per output channel; the fold into
    // shared output ciphertexts runs on the parent in channel order.
    let placed: Vec<H::Ct> = par::try_fan_out(h, accs.len(), |h, k| {
        let masked = if must_mask {
            let fill = |m: &mut [f64]| grid_mask_layout.fill_mask(0, m);
            apply_mask(h, &accs[k], grid_mask_layout.slots, fill, scales)?
        } else {
            super::settle(h, accs[k].clone(), scales.input)?
        };
        let dest_block = k % out_layout.channels_per_ct;
        Ok(if dest_block == 0 {
            masked
        } else {
            h.try_rot_right(&masked, dest_block * out_layout.c_stride)?
        })
    })?;
    let mut out_cts: Vec<Option<H::Ct>> = vec![None; out_layout.num_cts()];
    for (k, p) in placed.into_iter().enumerate() {
        let dest_ct = k / out_layout.channels_per_ct;
        out_cts[dest_ct] = Some(match out_cts[dest_ct].take() {
            None => p,
            Some(prev) => h.try_add(&prev, &p)?,
        });
    }
    let mut out = CipherTensor {
        layout: out_layout,
        cts: out_cts.into_iter().map(|c| c.expect("all output cts populated")).collect(),
    };

    // Bias: a plaintext with bias[k] at each valid position of channel k.
    if let Some(b) = bias {
        let layout = out.layout.clone();
        for (ct_idx, ct) in out.cts.iter_mut().enumerate() {
            let fill = |vec: &mut [f64]| {
                for (c, &bias_c) in b.iter().enumerate() {
                    if c / layout.channels_per_ct != ct_idx {
                        continue;
                    }
                    for y in 0..layout.height {
                        for x in 0..layout.width {
                            let (_, slot) = layout.slot_of(c, y, x);
                            vec[slot] = bias_c;
                        }
                    }
                }
            };
            let scale = h.scale_of(ct);
            let pt = super::encode_tiled(h, layout.slots, scale, fill)?;
            *ct = h.try_add_plain(ct, &pt)?;
        }
    }
    Ok(out)
}

/// Rotates every tap's source ciphertext by its offset. Taps arrive sorted
/// by source, so consecutive runs sharing a source batch into one
/// [`rot_signed_many`] call — backends with hoisted key switching compute a
/// single gadget decomposition per source ciphertext for all of its taps.
fn rotate_taps<H: Hisa>(
    h: &mut H,
    input: &CipherTensor<H::Ct>,
    taps: &[(usize, usize, usize, isize)],
) -> Result<Vec<H::Ct>, HisaError> {
    let mut rotated = Vec::with_capacity(taps.len());
    let mut start = 0;
    while start < taps.len() {
        let src = taps[start].0;
        let mut end = start;
        while end < taps.len() && taps[end].0 == src {
            end += 1;
        }
        let offs: Vec<isize> = taps[start..end].iter().map(|t| t.3).collect();
        rotated.extend(rot_signed_many(h, &input.cts[src], &offs)?);
        start = end;
    }
    Ok(rotated)
}

/// HW-input accumulation: rotations shared across output channels, scalar
/// weight multiplies.
///
/// Two fan-out stages: the `C·R·S` shared rotations (one job per active
/// tap), then the `K` accumulator chains (one job per output channel, each
/// folding its taps in `(ci, ry, rx)` order — the sequential order, so the
/// result is independent of scheduling).
fn conv_accumulate_hw<H: Hisa>(
    h: &mut H,
    input: &CipherTensor<H::Ct>,
    weights: &Tensor,
    (pad_h, pad_w): (usize, usize),
    scales: &ScaleConfig,
) -> Result<Vec<H::Ct>, KernelError> {
    let lin = &input.layout;
    let [k_out, c_in, r, s] = *weights.shape() else { unreachable!() };
    // Active taps in (ci, ry, rx) order; taps with all-zero weights across
    // every output channel need no rotation at all.
    let mut taps: Vec<(usize, usize, usize, isize)> = Vec::new();
    for ci in 0..c_in {
        for ry in 0..r {
            for rx in 0..s {
                if (0..k_out).all(|k| weights.at(&[k, ci, ry, rx]) == 0.0) {
                    continue;
                }
                let off = lin.offset(ry as isize - pad_h as isize, rx as isize - pad_w as isize);
                taps.push((ci, ry, rx, off));
            }
        }
    }
    let rotated = rotate_taps(h, input, &taps)?;
    par::try_fan_out(h, k_out, |h, k| {
        let mut acc: Option<H::Ct> = None;
        for (t, &(ci, ry, rx, _)) in taps.iter().enumerate() {
            let w = weights.at(&[k, ci, ry, rx]);
            if w == 0.0 {
                continue;
            }
            let prod = h.try_mul_scalar(&rotated[t], w, scales.weight_scalar)?;
            acc = Some(match acc {
                None => prod,
                Some(prev) => h.try_add(&prev, &prod)?,
            });
        }
        // All-zero filters (possibly every filter) get an encrypt-free zero
        // via 0 × input, which lands at the same scale as any real
        // accumulator (input_scale · weight_scalar either way).
        Ok(match acc {
            Some(acc) => acc,
            None => h.try_mul_scalar(&input.cts[0], 0.0, scales.weight_scalar)?,
        })
    })
}

/// CHW-input accumulation: plaintext weight multiplies, then a rotate-add
/// tree across channel blocks; the complete sum lands in block 0.
///
/// Same two-stage fan-out as the HW path: shared `R·S` rotations per input
/// ciphertext, then one accumulator chain (plus rotate-add reduction) per
/// output channel, folded in `(ct, ry, rx)` order.
fn conv_accumulate_chw<H: Hisa>(
    h: &mut H,
    input: &CipherTensor<H::Ct>,
    weights: &Tensor,
    (pad_h, pad_w): (usize, usize),
    scales: &ScaleConfig,
) -> Result<Vec<H::Ct>, KernelError> {
    let lin = &input.layout;
    let [k_out, c_in, r, s] = *weights.shape() else { unreachable!() };
    let cpc = lin.channels_per_ct;
    // Taps in (ct, ry, rx) order; a tap whose weights are zero for every
    // output channel and every channel in the block needs no rotation.
    let mut taps: Vec<(usize, usize, usize, isize)> = Vec::new();
    for ct_idx in 0..input.cts.len() {
        let c_base = ct_idx * cpc;
        let c_count = cpc.min(c_in - c_base);
        for ry in 0..r {
            for rx in 0..s {
                let active = (0..k_out).any(|k| {
                    (0..c_count).any(|b| weights.at(&[k, c_base + b, ry, rx]) != 0.0)
                });
                if !active {
                    continue;
                }
                let off = lin.offset(ry as isize - pad_h as isize, rx as isize - pad_w as isize);
                taps.push((ct_idx, ry, rx, off));
            }
        }
    }
    let rotated = rotate_taps(h, input, &taps)?;
    par::try_fan_out(h, k_out, |h, k| {
        let mut acc: Option<H::Ct> = None;
        for (t, &(ct_idx, ry, rx, _)) in taps.iter().enumerate() {
            // Plaintext: weight of (k, channel block) broadcast over each
            // block's span.
            let c_base = ct_idx * cpc;
            let c_count = cpc.min(c_in - c_base);
            let w = |b: usize| weights.at(&[k, c_base + b, ry, rx]);
            if (0..c_count).all(|b| w(b) == 0.0) {
                continue;
            }
            let fill = |vec: &mut [f64]| {
                for b in 0..c_count {
                    let w = w(b);
                    if w == 0.0 {
                        continue;
                    }
                    let start = b * lin.c_stride;
                    for v in vec.iter_mut().skip(start).take(lin.c_stride) {
                        *v = w;
                    }
                }
            };
            let pt = super::encode_tiled(h, lin.slots, scales.weight_plain, fill)?;
            let prod = h.try_mul_plain(&rotated[t], &pt)?;
            acc = Some(match acc {
                None => prod,
                Some(prev) => h.try_add(&prev, &prod)?,
            });
        }
        let acc = match acc {
            Some(acc) => acc,
            None => {
                let pt = super::encode_tiled(h, lin.slots, scales.weight_plain, |_| {})?;
                h.try_mul_plain(&input.cts[0], &pt)?
            }
        };
        Ok(super::reduce_groups(h, &acc, lin.c_stride, cpc)?)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ciphertensor::{decrypt_tensor, try_encrypt_tensor};
    use chet_ckks::sim::SimCkks;
    use chet_hisa::{EncryptionParams, RotationKeyPolicy};
    use chet_tensor::ops;

    fn sim() -> SimCkks {
        let params = EncryptionParams::rns_ckks(8192, 40, 6);
        SimCkks::new(&params, &RotationKeyPolicy::PowersOfTwo, 5).without_noise()
    }

    fn check_conv(
        input_shape: [usize; 3],
        weight_shape: [usize; 4],
        stride: usize,
        padding: Padding,
        in_kind: LayoutKind,
        out_kind: LayoutKind,
    ) {
        let mut h = sim();
        let scales = ScaleConfig::default();
        let input = Tensor::from_fn(input_shape.to_vec(), |i| {
            ((i[0] * 7 + i[1] * 3 + i[2]) % 5) as f64 - 2.0
        });
        let weights = Tensor::from_fn(weight_shape.to_vec(), |i| {
            ((i[0] + i[1] * 2 + i[2] + i[3]) % 3) as f64 * 0.5 - 0.5
        });
        let bias: Vec<f64> = (0..weight_shape[0]).map(|k| k as f64 * 0.25).collect();
        let margin = weight_shape[2] - 1;
        let [c, ih, iw] = input_shape;
        let layout = match in_kind {
            LayoutKind::HW => Layout::hw(c, ih, iw, margin, h.slots()),
            LayoutKind::CHW => Layout::chw(c, ih, iw, margin, h.slots()),
        };
        let enc = try_encrypt_tensor(&mut h, &input, &layout, scales.input).unwrap();
        let out = try_hconv2d_with_mask(
            &mut h, &enc, &weights, Some(&bias), stride, padding, out_kind, &scales, true,
        )
        .unwrap();
        let got = decrypt_tensor(&mut h, &out);
        let want = ops::conv2d(&input, &weights, Some(&bias), stride, padding);
        assert_eq!(got.shape(), want.shape());
        assert!(
            got.max_abs_diff(&want) < 1e-6,
            "conv mismatch ({in_kind}->{out_kind}, stride {stride}, {padding:?}): {}",
            got.max_abs_diff(&want)
        );
    }

    #[test]
    fn hw_to_hw_valid() {
        check_conv([2, 6, 6], [3, 2, 3, 3], 1, Padding::Valid, LayoutKind::HW, LayoutKind::HW);
    }

    #[test]
    fn hw_to_chw_valid() {
        check_conv([2, 6, 6], [3, 2, 3, 3], 1, Padding::Valid, LayoutKind::HW, LayoutKind::CHW);
    }

    #[test]
    fn chw_to_chw_valid() {
        check_conv([4, 5, 5], [3, 4, 2, 2], 1, Padding::Valid, LayoutKind::CHW, LayoutKind::CHW);
    }

    #[test]
    fn chw_to_hw_valid() {
        check_conv([4, 5, 5], [2, 4, 2, 2], 1, Padding::Valid, LayoutKind::CHW, LayoutKind::HW);
    }

    #[test]
    fn same_padding_hw() {
        check_conv([1, 5, 5], [2, 1, 3, 3], 1, Padding::Same, LayoutKind::HW, LayoutKind::HW);
    }

    #[test]
    fn same_padding_chw() {
        check_conv([2, 4, 4], [2, 2, 3, 3], 1, Padding::Same, LayoutKind::CHW, LayoutKind::CHW);
    }

    #[test]
    fn strided_conv_hw() {
        check_conv([1, 8, 8], [2, 1, 3, 3], 2, Padding::Valid, LayoutKind::HW, LayoutKind::HW);
    }

    #[test]
    fn strided_conv_chw() {
        check_conv([2, 8, 8], [2, 2, 2, 2], 2, Padding::Valid, LayoutKind::CHW, LayoutKind::CHW);
    }

    #[test]
    fn one_by_one_conv() {
        check_conv([4, 4, 4], [8, 4, 1, 1], 1, Padding::Valid, LayoutKind::CHW, LayoutKind::CHW);
    }

    #[test]
    fn malformed_shapes_surface_as_kernel_errors() {
        let mut h = sim();
        let scales = ScaleConfig::default();
        let input = Tensor::zeros(vec![2, 4, 4]);
        let layout = Layout::chw(2, 4, 4, 0, h.slots());
        let enc = try_encrypt_tensor(&mut h, &input, &layout, scales.input).unwrap();

        // 3-D weights instead of KCRS.
        let w = Tensor::zeros(vec![2, 3, 3]);
        let e = try_hconv2d_with_mask(
            &mut h, &enc, &w, None, 1, Padding::Valid, LayoutKind::CHW, &scales, true,
        )
        .unwrap_err();
        assert!(e.to_string().contains("KCRS"), "{e}");

        // Channel mismatch.
        let w = Tensor::zeros(vec![2, 3, 2, 2]);
        let e = try_hconv2d_with_mask(
            &mut h, &enc, &w, None, 1, Padding::Valid, LayoutKind::CHW, &scales, true,
        )
        .unwrap_err();
        assert!(e.to_string().contains("match input channels"), "{e}");

        // Same padding without margin headroom.
        let w = Tensor::zeros(vec![1, 2, 3, 3]);
        let e = try_hconv2d_with_mask(
            &mut h, &enc, &w, None, 1, Padding::Same, LayoutKind::CHW, &scales, true,
        )
        .unwrap_err();
        assert!(e.to_string().contains("margin"), "{e}");

        // Bias length mismatch.
        let w = Tensor::zeros(vec![2, 2, 2, 2]);
        let e = try_hconv2d_with_mask(
            &mut h, &enc, &w, Some(&[0.5]), 1, Padding::Valid, LayoutKind::CHW, &scales, true,
        )
        .unwrap_err();
        assert!(e.to_string().contains("bias length"), "{e}");
    }

    #[test]
    fn all_zero_filters_produce_zero_channels() {
        // Every filter zero: must not panic, output must be all zeros.
        let mut h = sim();
        let scales = ScaleConfig::default();
        let input = Tensor::from_fn(vec![1, 4, 4], |i| (i[1] + i[2]) as f64 * 0.1);
        let layout = Layout::hw(1, 4, 4, 0, h.slots());
        let enc = try_encrypt_tensor(&mut h, &input, &layout, scales.input).unwrap();
        let w = Tensor::zeros(vec![2, 1, 2, 2]);
        let out = try_hconv2d_with_mask(
            &mut h, &enc, &w, None, 1, Padding::Valid, LayoutKind::HW, &scales, true,
        )
        .unwrap();
        let got = decrypt_tensor(&mut h, &out);
        assert!(got.data().iter().all(|&v| v.abs() < 1e-9));
    }

    #[test]
    fn many_output_channels_split_cts() {
        // Force the output channels to split across several ciphertexts.
        let mut h = sim();
        let scales = ScaleConfig::default();
        let input = Tensor::from_fn(vec![1, 30, 30], |i| ((i[1] + i[2]) % 7) as f64 * 0.1);
        let weights = Tensor::from_fn(vec![6, 1, 3, 3], |i| (i[0] as f64 - 2.5) * 0.1);
        let layout = Layout::chw(1, 30, 30, 2, h.slots());
        let enc = try_encrypt_tensor(&mut h, &input, &layout, scales.input).unwrap();
        let out = try_hconv2d_with_mask(
            &mut h, &enc, &weights, None, 1, Padding::Valid, LayoutKind::CHW, &scales, true,
        )
        .unwrap();
        assert!(out.layout.num_cts() >= 1);
        let got = decrypt_tensor(&mut h, &out);
        let want = ops::conv2d(&input, &weights, None, 1, Padding::Valid);
        assert!(got.max_abs_diff(&want) < 1e-3);
    }
}
