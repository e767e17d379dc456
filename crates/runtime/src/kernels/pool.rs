//! Homomorphic average pooling (the paper's HE-compatible replacement for
//! max pooling, §6).

use super::{apply_mask, rot_signed_many, KernelError, ScaleConfig};
use crate::ciphertensor::CipherTensor;
use crate::par;
use chet_hisa::Hisa;
use chet_tensor::ops::{conv_output_dim, Padding};

/// Average pooling with a square window: window rotations + one scalar
/// multiply by `1/k²` + mask. Identical structure in both layouts — under
/// CHW all channels of a ciphertext pool simultaneously, which is why
/// non-conv ops favor CHW (paper §5.3 heuristics).
///
/// `mask_output` is the lazy-masking decision: the window reads touch only
/// valid input positions, so when no downstream consumer needs zeroed junk
/// the mask multiply can be skipped. Window/stride contract violations
/// come back as [`KernelError`] values. Each ciphertext pools as an
/// independent fan-out job (under CHW one job covers a whole channel
/// block).
pub fn try_havg_pool2d_with_mask<H: Hisa>(
    h: &mut H,
    input: &CipherTensor<H::Ct>,
    kernel: usize,
    stride: usize,
    scales: &ScaleConfig,
    mask_output: bool,
) -> Result<CipherTensor<H::Ct>, KernelError> {
    let lin = &input.layout;
    if kernel == 0 {
        return Err(KernelError::new("avg_pool2d", "pooling window must be >= 1"));
    }
    if stride == 0 {
        return Err(KernelError::new("avg_pool2d", "stride must be >= 1"));
    }
    if kernel > lin.height || kernel > lin.width {
        return Err(KernelError::new(
            "avg_pool2d",
            format!(
                "pooling window {kernel}x{kernel} larger than the {}x{} input frame",
                lin.height, lin.width
            ),
        ));
    }
    let (oh, _) = conv_output_dim(lin.height, kernel, stride, Padding::Valid);
    let (ow, _) = conv_output_dim(lin.width, kernel, stride, Padding::Valid);
    let out_layout = lin.strided_view(oh, ow, stride, lin.channels);
    let inv = 1.0 / (kernel * kernel) as f64;
    let cts = par::try_fan_out(h, input.cts.len(), |h, i| {
        let ct = &input.cts[i];
        // One batched rotation call per ciphertext: hoisting backends share
        // a single key-switch decomposition across the whole window.
        let mut offs = Vec::with_capacity(kernel * kernel);
        for ry in 0..kernel {
            for rx in 0..kernel {
                offs.push(lin.offset(ry as isize, rx as isize));
            }
        }
        let mut acc: Option<H::Ct> = None;
        for rotated in rot_signed_many(h, ct, &offs)? {
            acc = Some(match acc {
                None => rotated,
                Some(prev) => h.try_add(&prev, &rotated)?,
            });
        }
        let summed = acc.expect("kernel >= 1 was validated");
        let scaled = h.try_mul_scalar(&summed, inv, scales.weight_scalar)?;
        Ok(if mask_output {
            apply_mask(h, &scaled, out_layout.slots, |m| out_layout.fill_mask(i, m), scales)?
        } else {
            super::settle(h, scaled, scales.input)?
        })
    })?;
    Ok(CipherTensor { layout: out_layout, cts })
}

/// Global average pooling: sum each channel grid into its origin slot, then
/// scale by `1/(H·W)` and mask the origins. The output keeps the layout's
/// channel placement with a `1×1` grid. Degenerate (zero-area) input
/// frames come back as [`KernelError`] values. Each ciphertext reduces as
/// an independent fan-out job.
pub fn try_hglobal_avg_pool<H: Hisa>(
    h: &mut H,
    input: &CipherTensor<H::Ct>,
    scales: &ScaleConfig,
) -> Result<CipherTensor<H::Ct>, KernelError> {
    let lin = &input.layout;
    if lin.height == 0 || lin.width == 0 {
        return Err(KernelError::new(
            "global_avg_pool",
            format!("input frame must be nonempty (got {}x{})", lin.height, lin.width),
        ));
    }
    let mut out_layout = lin.clone();
    out_layout.height = 1;
    out_layout.width = 1;
    let inv = 1.0 / (lin.height * lin.width) as f64;
    let cts = par::try_fan_out(h, input.cts.len(), |h, i| {
        let ct = &input.cts[i];
        // Fold columns into column 0 (reads only valid columns), batching
        // the rotations so one key-switch decomposition covers the row.
        let col_offs: Vec<isize> = (0..lin.width).map(|x| (x * lin.w_stride) as isize).collect();
        let mut cols: Option<H::Ct> = None;
        for rotated in rot_signed_many(h, ct, &col_offs)? {
            cols = Some(match cols {
                None => rotated,
                Some(prev) => h.try_add(&prev, &rotated)?,
            });
        }
        let cols = cols.expect("width >= 1 was validated");
        // Fold rows into row 0.
        let row_offs: Vec<isize> = (0..lin.height).map(|y| (y * lin.h_stride) as isize).collect();
        let mut rows: Option<H::Ct> = None;
        for rotated in rot_signed_many(h, &cols, &row_offs)? {
            rows = Some(match rows {
                None => rotated,
                Some(prev) => h.try_add(&prev, &rotated)?,
            });
        }
        let summed = rows.expect("height >= 1 was validated");
        let scaled = h.try_mul_scalar(&summed, inv, scales.weight_scalar)?;
        Ok(apply_mask(h, &scaled, out_layout.slots, |m| out_layout.fill_mask(i, m), scales)?)
    })?;
    Ok(CipherTensor { layout: out_layout, cts })
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

    fn check_pool(shape: [usize; 3], kernel: usize, stride: usize, kind: LayoutKind) {
        let mut h = sim();
        let scales = ScaleConfig::default();
        let input = Tensor::from_fn(shape.to_vec(), |i| ((i[0] + i[1] * 2 + i[2]) % 9) as f64 - 4.0);
        let [c, ih, iw] = shape;
        let layout = match kind {
            LayoutKind::HW => Layout::hw(c, ih, iw, 0, h.slots()),
            LayoutKind::CHW => Layout::chw(c, ih, iw, 0, h.slots()),
        };
        let enc = try_encrypt_tensor(&mut h, &input, &layout, scales.input).unwrap();
        let out = try_havg_pool2d_with_mask(&mut h, &enc, kernel, stride, &scales, true).unwrap();
        let got = decrypt_tensor(&mut h, &out);
        let want = ops::avg_pool2d(&input, kernel, stride);
        assert_eq!(got.shape(), want.shape());
        assert!(got.max_abs_diff(&want) < 1e-3, "diff {}", got.max_abs_diff(&want));
    }

    #[test]
    fn avg_pool_hw() {
        check_pool([2, 6, 6], 2, 2, LayoutKind::HW);
    }

    #[test]
    fn avg_pool_chw() {
        check_pool([3, 6, 6], 2, 2, LayoutKind::CHW);
    }

    #[test]
    fn avg_pool_overlapping_windows() {
        check_pool([1, 5, 5], 3, 1, LayoutKind::CHW);
    }

    #[test]
    fn global_pool_matches_reference() {
        for kind in [LayoutKind::HW, LayoutKind::CHW] {
            let mut h = sim();
            let scales = ScaleConfig::default();
            let input = Tensor::from_fn(vec![4, 5, 5], |i| (i[0] * i[1] + i[2]) as f64 * 0.1);
            let layout = match kind {
                LayoutKind::HW => Layout::hw(4, 5, 5, 0, h.slots()),
                LayoutKind::CHW => Layout::chw(4, 5, 5, 0, h.slots()),
            };
            let enc = try_encrypt_tensor(&mut h, &input, &layout, scales.input).unwrap();
            let out = try_hglobal_avg_pool(&mut h, &enc, &scales).unwrap();
            let got = decrypt_tensor(&mut h, &out);
            let want = ops::global_avg_pool(&input);
            assert!(got.max_abs_diff(&want) < 1e-3, "{kind}: diff {}", got.max_abs_diff(&want));
        }
    }

    #[test]
    fn pooled_output_is_dilated_not_repacked() {
        let mut h = sim();
        let scales = ScaleConfig::default();
        let input = Tensor::from_fn(vec![1, 4, 4], |i| (i[1] * 4 + i[2]) as f64);
        let layout = Layout::hw(1, 4, 4, 0, h.slots());
        let enc = try_encrypt_tensor(&mut h, &input, &layout, scales.input).unwrap();
        let out = try_havg_pool2d_with_mask(&mut h, &enc, 2, 2, &scales, true).unwrap();
        assert_eq!(out.layout.h_stride, 8);
        assert_eq!(out.layout.w_stride, 2);
    }
}
