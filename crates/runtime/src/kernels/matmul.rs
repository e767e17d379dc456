//! Homomorphic dense (fully connected) layers — the paper's Figure 1
//! workload, generalized to arbitrary input layouts.

use super::{apply_mask, reduce_groups, KernelError, ScaleConfig};
use crate::ciphertensor::CipherTensor;
use crate::layout::Layout;
use crate::par;
use chet_hisa::Hisa;
use chet_tensor::Tensor;

/// Shared dense-layer contract checks: 2-D weights matching the flattened
/// input size, a bias matching the output rows.
fn validate_dense(
    kernel: &'static str,
    lin: &Layout,
    weights: &Tensor,
    bias: Option<&[f64]>,
) -> Result<[usize; 2], KernelError> {
    let &[out_dim, in_dim] = weights.shape() else {
        return Err(KernelError::new(
            kernel,
            format!("matmul weights must be 2-D (got a {}-D tensor)", weights.shape().len()),
        ));
    };
    let numel = lin.channels * lin.height * lin.width;
    if in_dim != numel {
        return Err(KernelError::new(
            kernel,
            format!("weight columns ({in_dim}) must match flattened input size ({numel})"),
        ));
    }
    if out_dim == 0 {
        return Err(KernelError::new(kernel, "weights must have at least one output row"));
    }
    if let Some(b) = bias {
        if b.len() != out_dim {
            return Err(KernelError::new(
                kernel,
                format!("bias length {} must equal output rows {out_dim}", b.len()),
            ));
        }
    }
    Ok([out_dim, in_dim])
}

/// Homomorphic `y = W·x + b` over a flattened [`CipherTensor`].
///
/// Per output neuron: multiply each input ciphertext by a plaintext holding
/// that neuron's weights at the input's slot positions, add, rotate-reduce
/// the sum into slot 0, mask, and rotate into the output position. The
/// output is a dense vector layout (one ciphertext). Dimension mismatches,
/// or an output that does not fit one ciphertext, come back as
/// [`KernelError`] values.
pub fn try_hmatmul<H: Hisa>(
    h: &mut H,
    input: &CipherTensor<H::Ct>,
    weights: &Tensor,
    bias: Option<&[f64]>,
    scales: &ScaleConfig,
) -> Result<CipherTensor<H::Ct>, KernelError> {
    let lin = &input.layout;
    let [out_dim, _in_dim] = validate_dense("matmul", lin, weights, bias)?;
    if out_dim > lin.slots {
        return Err(KernelError::new(
            "matmul",
            format!("output vector ({out_dim}) must fit one ciphertext ({} slots)", lin.slots),
        ));
    }

    // Used span for the reduction tree.
    let span = (lin.channels_per_ct - 1).min(lin.channels - 1) * lin.c_stride
        + (lin.height - 1) * lin.h_stride
        + (lin.width - 1) * lin.w_stride
        + 1;
    let span_p2 = span.next_power_of_two();
    if span_p2 > lin.slots {
        return Err(KernelError::new(
            "matmul",
            format!(
                "input span ({span}) must fit a power-of-two region within {} slots",
                lin.slots
            ),
        ));
    }

    // One fan-out job per output neuron; the fold into the single output
    // ciphertext happens on the parent in neuron order.
    let placed: Vec<H::Ct> = par::try_fan_out(h, out_dim, |h, o| {
        // Weighted input, one plaintext multiply per input ciphertext.
        let mut acc: Option<H::Ct> = None;
        for (ct_idx, ct) in input.cts.iter().enumerate() {
            // This ciphertext's channels hold a contiguous run of the
            // flattened input.
            let (cpc, grid) = (lin.channels_per_ct, lin.height * lin.width);
            let elems = ct_idx * cpc * grid..lin.channels.min((ct_idx + 1) * cpc) * grid;
            if elems.clone().all(|flat| weights.at(&[o, flat]) == 0.0) {
                continue;
            }
            let fill = |vec: &mut [f64]| {
                for flat in elems.clone() {
                    let w = weights.at(&[o, flat]);
                    if w != 0.0 {
                        let (c, y, x) = (flat / grid, flat % grid / lin.width, flat % lin.width);
                        vec[lin.slot_of(c, y, x).1] = w;
                    }
                }
            };
            let pt = super::encode_tiled(h, lin.slots, scales.weight_plain, fill)?;
            let prod = h.try_mul_plain(ct, &pt)?;
            acc = Some(match acc {
                None => prod,
                Some(prev) => h.try_add(&prev, &prod)?,
            });
        }
        let acc = match acc {
            Some(a) => a,
            None => {
                // All-zero row: synthesize a zero at the right scale.
                let pt = super::encode_tiled(h, lin.slots, scales.weight_plain, |_| {})?;
                h.try_mul_plain(&input.cts[0], &pt)?
            }
        };
        // Sum all used slots into slot 0, isolate it, move to position o.
        let red = reduce_groups(h, &acc, 1, span_p2)?;
        let masked = apply_mask(h, &red, lin.slots, |m| m[0] = 1.0, scales)?;
        Ok(if o == 0 {
            masked
        } else {
            h.try_rot_right(&masked, o)?
        })
    })?;
    let mut out_ct: Option<H::Ct> = None;
    for p in placed {
        out_ct = Some(match out_ct {
            None => p,
            Some(prev) => h.try_add(&prev, &p)?,
        });
    }

    let mut result = out_ct.expect("out_dim >= 1 was validated");
    if let Some(b) = bias {
        let scale = h.scale_of(&result);
        let pt = super::encode_tiled(h, lin.slots, scale, |v| v[..out_dim].copy_from_slice(b))?;
        result = h.try_add_plain(&result, &pt)?;
    }
    Ok(CipherTensor {
        layout: Layout::dense_vector(out_dim, lin.slots).with_batch(lin.batch),
        cts: vec![result],
    })
}


/// Baby-step/giant-step dense layer for *contiguous* inputs (a dense
/// vector layout, e.g. chained FC layers).
///
/// Uses the Halevi–Shoup diagonal decomposition: `y = Σ_d diag_d ⊙
/// rot(x, d)`, grouped so only `~2·sqrt(n)` ciphertext rotations are
/// needed instead of `out·log(n)` — the `ablation_matmul` experiment
/// quantifies the trade (more plaintext multiplies, far fewer rotations).
///
/// The input layout must be a contiguous vector (`slot(e) = e`) with `2·n`
/// slots available for `n = next_pow2(max(in, out))`; contract violations
/// come back as [`KernelError`] values.
pub fn try_hmatmul_bsgs<H: Hisa>(
    h: &mut H,
    input: &CipherTensor<H::Ct>,
    weights: &Tensor,
    bias: Option<&[f64]>,
    scales: &ScaleConfig,
) -> Result<CipherTensor<H::Ct>, KernelError> {
    let lin = &input.layout;
    let [out_dim, in_dim] = validate_dense("matmul_bsgs", lin, weights, bias)?;
    if input.num_cts() != 1 {
        return Err(KernelError::new(
            "matmul_bsgs",
            format!("BSGS needs a single-ciphertext input (got {})", input.num_cts()),
        ));
    }
    if lin.height != 1 || lin.width != 1 || lin.c_stride != 1 {
        return Err(KernelError::new("matmul_bsgs", "BSGS needs a contiguous dense-vector layout"));
    }
    let n = in_dim.max(out_dim).next_power_of_two();
    if 2 * n > lin.slots {
        return Err(KernelError::new(
            "matmul_bsgs",
            format!("BSGS needs 2·n slots of headroom (n = {n}, slots = {})", lin.slots),
        ));
    }

    // x_ext: the input replicated with period n.
    let x = &input.cts[0];
    let dup = h.try_rot_right(x, n)?;
    let x_ext = h.try_add(x, &dup)?;

    // Block sizes: B baby steps, G giant steps, B·G = n.
    let b_steps = (1usize << (n.ilog2().div_ceil(2))).min(n);
    let g_steps = n / b_steps;

    // Baby rotations of x_ext, shared across giant steps. One batched call
    // lets hoisting backends reuse a single key-switch decomposition of
    // x_ext across all b_steps − 1 rotations.
    let steps: Vec<usize> = (1..b_steps).collect();
    let mut baby = Vec::with_capacity(b_steps);
    baby.push(h.copy(&x_ext));
    baby.extend(h.try_rot_left_many(&x_ext, &steps)?);

    // One fan-out job per giant step; partials fold on the parent in giant
    // order.
    let partials: Vec<Option<H::Ct>> = par::try_fan_out(h, g_steps, |h, g| {
        let gb = g * b_steps;
        let mut acc: Option<H::Ct> = None;
        for (b, xb) in baby.iter().enumerate() {
            let d = gb + b;
            // diag'_{g,b}[j] for j in [gB, gB + n): row = j − gB,
            // col = (row + d) mod n.
            let diag = || {
                (0..n.min(out_dim)).filter_map(move |row| {
                    let col = (row + d) % n;
                    let w = if col < in_dim { weights.at(&[row, col]) } else { 0.0 };
                    (w != 0.0).then_some((row, w))
                })
            };
            if diag().next().is_none() {
                continue;
            }
            let fill = |vec: &mut [f64]| {
                for (row, w) in diag() {
                    vec[gb + row] = w;
                }
            };
            let pt = super::encode_tiled(h, lin.slots, scales.weight_plain, fill)?;
            let prod = h.try_mul_plain(xb, &pt)?;
            acc = Some(match acc {
                None => prod,
                Some(prev) => h.try_add(&prev, &prod)?,
            });
        }
        Ok(match acc {
            Some(partial) if gb > 0 => Some(h.try_rot_left(&partial, gb)?),
            partial => partial,
        })
    })?;
    let mut acc_total: Option<H::Ct> = None;
    for shifted in partials.into_iter().flatten() {
        acc_total = Some(match acc_total {
            None => shifted,
            Some(prev) => h.try_add(&prev, &shifted)?,
        });
    }
    let acc = match acc_total {
        Some(a) => super::settle(h, a, scales.input)?,
        None => {
            let pt = super::encode_tiled(h, lin.slots, scales.weight_plain, |_| {})?;
            let z = h.try_mul_plain(x, &pt)?;
            super::settle(h, z, scales.input)?
        }
    };
    let mut result = acc;
    if let Some(bv) = bias {
        let scale = h.scale_of(&result);
        let pt = super::encode_tiled(h, lin.slots, scale, |v| v[..out_dim].copy_from_slice(bv))?;
        result = h.try_add_plain(&result, &pt)?;
    }
    Ok(CipherTensor {
        layout: Layout::dense_vector(out_dim, lin.slots).with_batch(lin.batch),
        cts: vec![result],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ciphertensor::{decrypt_tensor, try_encrypt_tensor};
    use crate::layout::LayoutKind;
    use chet_ckks::sim::SimCkks;
    use chet_hisa::{EncryptionParams, RotationKeyPolicy};
    use chet_tensor::ops;

    fn sim() -> SimCkks {
        let params = EncryptionParams::rns_ckks(8192, 40, 6);
        SimCkks::new(&params, &RotationKeyPolicy::PowersOfTwo, 5).without_noise()
    }

    fn check_matmul(shape: [usize; 3], out_dim: usize, kind: LayoutKind, with_bias: bool) {
        let mut h = sim();
        let scales = ScaleConfig::default();
        let [c, ih, iw] = shape;
        let in_dim = c * ih * iw;
        let input = Tensor::from_fn(shape.to_vec(), |i| ((i[0] * 5 + i[1] + i[2] * 3) % 7) as f64 - 3.0);
        let weights = Tensor::from_fn(vec![out_dim, in_dim], |i| {
            ((i[0] * 13 + i[1] * 7) % 11) as f64 * 0.1 - 0.5
        });
        let bias: Option<Vec<f64>> =
            with_bias.then(|| (0..out_dim).map(|o| o as f64 - 1.0).collect());
        let layout = match kind {
            LayoutKind::HW => Layout::hw(c, ih, iw, 0, h.slots()),
            LayoutKind::CHW => Layout::chw(c, ih, iw, 0, h.slots()),
        };
        let enc = try_encrypt_tensor(&mut h, &input, &layout, scales.input).unwrap();
        let out = try_hmatmul(&mut h, &enc, &weights, bias.as_deref(), &scales).unwrap();
        let got = decrypt_tensor(&mut h, &out);
        let want = ops::matmul_vec(&weights, input.data(), bias.as_deref());
        for (i, (&g, &w)) in got.data().iter().zip(&want).enumerate() {
            assert!((g - w).abs() < 1e-3, "{kind} out {i}: got {g}, want {w}");
        }
    }

    #[test]
    fn matmul_from_hw() {
        check_matmul([2, 4, 4], 5, LayoutKind::HW, true);
    }

    #[test]
    fn matmul_from_chw() {
        check_matmul([4, 3, 3], 7, LayoutKind::CHW, true);
    }

    #[test]
    fn matmul_without_bias() {
        check_matmul([1, 4, 4], 3, LayoutKind::CHW, false);
    }

    #[test]
    fn matmul_from_dense_vector() {
        // Chained dense layers: input already a dense vector.
        let mut h = sim();
        let scales = ScaleConfig::default();
        let x = Tensor::from_fn(vec![6, 1, 1], |i| i[0] as f64 * 0.5 - 1.0);
        let layout = Layout::dense_vector(6, h.slots());
        let enc = try_encrypt_tensor(&mut h, &x, &layout, scales.input).unwrap();
        let w = Tensor::from_fn(vec![4, 6], |i| ((i[0] + i[1]) % 3) as f64 - 1.0);
        let out = try_hmatmul(&mut h, &enc, &w, None, &scales).unwrap();
        let got = decrypt_tensor(&mut h, &out);
        let want = ops::matmul_vec(&w, x.data(), None);
        for (g, w) in got.data().iter().zip(&want) {
            assert!((g - w).abs() < 1e-6);
        }
    }

    #[test]
    fn bsgs_matches_standard_matmul() {
        let mut h = sim();
        let scales = ScaleConfig::default();
        for (inp, out) in [(6usize, 4usize), (8, 8), (5, 12)] {
            let x = Tensor::from_fn(vec![inp, 1, 1], |i| (i[0] as f64) * 0.3 - 0.7);
            let layout = Layout::dense_vector(inp, h.slots());
            let enc = try_encrypt_tensor(&mut h, &x, &layout, scales.input).unwrap();
            let w = Tensor::from_fn(vec![out, inp], |i| ((i[0] * 3 + i[1]) % 5) as f64 * 0.2 - 0.4);
            let bias: Vec<f64> = (0..out).map(|o| o as f64 * 0.1).collect();
            let fast = try_hmatmul_bsgs(&mut h, &enc, &w, Some(&bias), &scales).unwrap();
            let want = ops::matmul_vec(&w, x.data(), Some(&bias));
            let got = decrypt_tensor(&mut h, &fast);
            for (i, (&g, &e)) in got.data().iter().zip(&want).enumerate() {
                assert!((g - e).abs() < 1e-3, "({inp}x{out}) out {i}: {g} vs {e}");
            }
        }
    }

    #[test]
    fn bsgs_uses_fewer_rotations() {
        use chet_hisa::cost::HisaOp;
        let scales = ScaleConfig::default();
        let inp = 64usize;
        let out = 32usize;
        let x = Tensor::from_fn(vec![inp, 1, 1], |i| i[0] as f64 * 0.01);
        let w = Tensor::from_fn(vec![out, inp], |i| (i[1] % 7) as f64 * 0.1 - 0.3);

        let mut h1 = sim();
        let layout = Layout::dense_vector(inp, h1.slots());
        let enc = try_encrypt_tensor(&mut h1, &x, &layout, scales.input).unwrap();
        try_hmatmul(&mut h1, &enc, &w, None, &scales).unwrap();
        let standard_rots = h1.op_count(HisaOp::Rotate);

        let mut h2 = sim();
        let enc = try_encrypt_tensor(&mut h2, &x, &layout, scales.input).unwrap();
        try_hmatmul_bsgs(&mut h2, &enc, &w, None, &scales).unwrap();
        let bsgs_rots = h2.op_count(HisaOp::Rotate);

        assert!(
            bsgs_rots * 2 < standard_rots,
            "BSGS ({bsgs_rots}) should use far fewer rotations than standard ({standard_rots})"
        );
    }

    #[test]
    fn malformed_shapes_surface_as_kernel_errors() {
        let mut h = sim();
        let scales = ScaleConfig::default();
        let x = Tensor::zeros(vec![2, 2, 2]);
        let layout = Layout::hw(2, 2, 2, 0, h.slots());
        let enc = try_encrypt_tensor(&mut h, &x, &layout, scales.input).unwrap();

        // 1-D weights.
        let w = Tensor::zeros(vec![8]);
        let e = try_hmatmul(&mut h, &enc, &w, None, &scales).unwrap_err();
        assert!(e.to_string().contains("2-D"), "{e}");

        // Column mismatch.
        let w = Tensor::zeros(vec![3, 9]);
        let e = try_hmatmul(&mut h, &enc, &w, None, &scales).unwrap_err();
        assert!(e.to_string().contains("flattened input size"), "{e}");

        // Bias length mismatch.
        let w = Tensor::zeros(vec![3, 8]);
        let e = try_hmatmul(&mut h, &enc, &w, Some(&[1.0]), &scales).unwrap_err();
        assert!(e.to_string().contains("bias length"), "{e}");

        // BSGS on a multi-ciphertext input (HW layout packs one ct per
        // channel, so this 2-channel tensor arrives as 2 cts).
        let e = try_hmatmul_bsgs(&mut h, &enc, &w, None, &scales).unwrap_err();
        assert!(e.to_string().contains("single-ciphertext"), "{e}");
    }

    #[test]
    fn output_layout_is_dense() {
        let mut h = sim();
        let scales = ScaleConfig::default();
        let x = Tensor::zeros(vec![2, 2, 2]);
        let layout = Layout::hw(2, 2, 2, 0, h.slots());
        let enc = try_encrypt_tensor(&mut h, &x, &layout, scales.input).unwrap();
        let w = Tensor::zeros(vec![3, 8]);
        let out = try_hmatmul(&mut h, &enc, &w, None, &scales).unwrap();
        assert_eq!(out.layout, Layout::dense_vector(3, h.slots()));
        assert_eq!(out.num_cts(), 1);
    }
}
