//! Reference implementations of CHET's tensor operations (paper §2.6).
//!
//! Inputs use CHW layout (`[channels, height, width]`); convolutions take
//! KCRS weights (`[out_channels, in_channels, kernel_h, kernel_w]`). These
//! are the semantics the homomorphic kernels in `chet-runtime` must match.
//!
//! Each shape-checked operation has one spelling, the fallible `try_*`
//! form: a shape-contract violation comes back as a [`ShapeError`] value.
//! [`crate::circuit::Circuit::eval`] turns it into a panic with the error
//! text.

use crate::tensor::Tensor;
use std::fmt;

/// A structured shape-contract violation from a reference tensor op: which
/// operation rejected its inputs and why. The `try_*` operations return
/// these as values, mirroring the runtime kernels' `KernelError` pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeError {
    /// The operation that rejected its inputs ("conv2d", "matmul", ...).
    pub op: &'static str,
    /// What disagreed, in human-readable form.
    pub reason: String,
}

impl ShapeError {
    fn new(op: &'static str, reason: impl Into<String>) -> Self {
        ShapeError { op, reason: reason.into() }
    }
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.op, self.reason)
    }
}

impl std::error::Error for ShapeError {}

/// Spatial padding mode for convolutions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Padding {
    /// No padding: output is `(H − R)/stride + 1`.
    Valid,
    /// Zero padding so the output is `ceil(H/stride)`.
    Same,
}

/// Computes the output spatial size and leading pad for one dimension.
pub fn conv_output_dim(input: usize, kernel: usize, stride: usize, padding: Padding) -> (usize, usize) {
    match padding {
        Padding::Valid => {
            assert!(input >= kernel, "kernel larger than input under valid padding");
            ((input - kernel) / stride + 1, 0)
        }
        Padding::Same => {
            let out = input.div_ceil(stride);
            let total_pad = ((out - 1) * stride + kernel).saturating_sub(input);
            (out, total_pad / 2)
        }
    }
}

/// 2-D cross-correlation of a CHW input with KCRS weights.
///
/// # Errors
///
/// Rejects non-CHW inputs, non-KCRS weights, channel or bias-length
/// mismatches, and kernels larger than the input under valid padding.
pub fn try_conv2d(
    input: &Tensor,
    weights: &Tensor,
    bias: Option<&[f64]>,
    stride: usize,
    padding: Padding,
) -> Result<Tensor, ShapeError> {
    let [c, h, w] = *input.shape() else {
        return Err(ShapeError::new(
            "conv2d",
            format!("input must be CHW (got a {}-D tensor)", input.shape().len()),
        ));
    };
    let [k, wc, r, s] = *weights.shape() else {
        return Err(ShapeError::new(
            "conv2d",
            format!("weights must be KCRS (got a {}-D tensor)", weights.shape().len()),
        ));
    };
    if c != wc {
        return Err(ShapeError::new(
            "conv2d",
            format!("input channels ({c}) must match weight channels ({wc})"),
        ));
    }
    if let Some(b) = bias {
        if b.len() != k {
            return Err(ShapeError::new(
                "conv2d",
                format!("bias length ({}) must equal output channels ({k})", b.len()),
            ));
        }
    }
    if padding == Padding::Valid && (h < r || w < s) {
        return Err(ShapeError::new(
            "conv2d",
            format!("kernel larger than input under valid padding ({r}×{s} on {h}×{w})"),
        ));
    }
    let (oh, pad_h) = conv_output_dim(h, r, stride, padding);
    let (ow, pad_w) = conv_output_dim(w, s, stride, padding);
    let mut out = Tensor::zeros(vec![k, oh, ow]);
    for ko in 0..k {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = bias.map_or(0.0, |b| b[ko]);
                for ci in 0..c {
                    for ry in 0..r {
                        for rx in 0..s {
                            let iy = (oy * stride + ry) as isize - pad_h as isize;
                            let ix = (ox * stride + rx) as isize - pad_w as isize;
                            if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize {
                                continue;
                            }
                            acc += input.at(&[ci, iy as usize, ix as usize])
                                * weights.at(&[ko, ci, ry, rx]);
                        }
                    }
                }
                *out.at_mut(&[ko, oy, ox]) = acc;
            }
        }
    }
    Ok(out)
}

/// Dense layer: `y = W·x + b` for a flattened input vector.
///
/// # Errors
///
/// Rejects non-2-D weights and input/bias length mismatches.
pub fn try_matmul_vec(
    weights: &Tensor,
    x: &[f64],
    bias: Option<&[f64]>,
) -> Result<Vec<f64>, ShapeError> {
    let [out_dim, in_dim] = *weights.shape() else {
        return Err(ShapeError::new(
            "matmul",
            format!("weights must be 2-D (got a {}-D tensor)", weights.shape().len()),
        ));
    };
    if x.len() != in_dim {
        return Err(ShapeError::new(
            "matmul",
            format!("input length ({}) must match weight columns ({in_dim})", x.len()),
        ));
    }
    if let Some(b) = bias {
        if b.len() != out_dim {
            return Err(ShapeError::new(
                "matmul",
                format!("bias length ({}) must equal rows ({out_dim})", b.len()),
            ));
        }
    }
    Ok((0..out_dim)
        .map(|o| {
            let row = &weights.data()[o * in_dim..(o + 1) * in_dim];
            let dot: f64 = row.iter().zip(x).map(|(w, v)| w * v).sum();
            dot + bias.map_or(0.0, |b| b[o])
        })
        .collect())
}

/// Average pooling with a square window.
///
/// # Errors
///
/// Rejects non-CHW inputs and windows larger than the input.
pub fn try_avg_pool2d(
    input: &Tensor,
    kernel: usize,
    stride: usize,
) -> Result<Tensor, ShapeError> {
    let [c, h, w] = *input.shape() else {
        return Err(ShapeError::new(
            "avg_pool2d",
            format!("input must be CHW (got a {}-D tensor)", input.shape().len()),
        ));
    };
    if h < kernel || w < kernel {
        return Err(ShapeError::new(
            "avg_pool2d",
            format!(
                "kernel larger than input under valid padding ({kernel}×{kernel} on {h}×{w})"
            ),
        ));
    }
    let (oh, _) = conv_output_dim(h, kernel, stride, Padding::Valid);
    let (ow, _) = conv_output_dim(w, kernel, stride, Padding::Valid);
    let inv = 1.0 / (kernel * kernel) as f64;
    let mut out = Tensor::zeros(vec![c, oh, ow]);
    for ci in 0..c {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = 0.0;
                for ry in 0..kernel {
                    for rx in 0..kernel {
                        acc += input.at(&[ci, oy * stride + ry, ox * stride + rx]);
                    }
                }
                *out.at_mut(&[ci, oy, ox]) = acc * inv;
            }
        }
    }
    Ok(out)
}

/// Global average pooling: one value per channel.
///
/// # Errors
///
/// Rejects non-CHW inputs.
pub fn try_global_avg_pool(input: &Tensor) -> Result<Tensor, ShapeError> {
    let [c, h, w] = *input.shape() else {
        return Err(ShapeError::new(
            "global_avg_pool",
            format!("input must be CHW (got a {}-D tensor)", input.shape().len()),
        ));
    };
    let inv = 1.0 / (h * w) as f64;
    let mut out = Tensor::zeros(vec![c, 1, 1]);
    for ci in 0..c {
        let mut acc = 0.0;
        for y in 0..h {
            for x in 0..w {
                acc += input.at(&[ci, y, x]);
            }
        }
        *out.at_mut(&[ci, 0, 0]) = acc * inv;
    }
    Ok(out)
}

/// HE-compatible activation `f(x) = a·x² + b·x` applied element-wise
/// (the paper's learnable replacement for ReLU, §6).
pub fn activation(input: &Tensor, a: f64, b: f64) -> Tensor {
    let mut out = input.clone();
    for v in out.data_mut() {
        *v = a * *v * *v + b * *v;
    }
    out
}

/// Per-channel affine transform (`y_c = scale_c · x_c + shift_c`), the
/// inference-time form of batch normalization.
///
/// # Errors
///
/// Rejects non-CHW inputs and scale/shift vectors that disagree with the
/// channel count.
pub fn try_batch_norm(
    input: &Tensor,
    scale: &[f64],
    shift: &[f64],
) -> Result<Tensor, ShapeError> {
    let [c, h, w] = *input.shape() else {
        return Err(ShapeError::new(
            "batch_norm",
            format!("input must be CHW (got a {}-D tensor)", input.shape().len()),
        ));
    };
    if scale.len() != c {
        return Err(ShapeError::new(
            "batch_norm",
            format!("scale length ({}) must equal channels ({c})", scale.len()),
        ));
    }
    if shift.len() != c {
        return Err(ShapeError::new(
            "batch_norm",
            format!("shift length ({}) must equal channels ({c})", shift.len()),
        ));
    }
    let mut out = input.clone();
    for ci in 0..c {
        for y in 0..h {
            for x in 0..w {
                let v = out.at(&[ci, y, x]);
                *out.at_mut(&[ci, y, x]) = scale[ci] * v + shift[ci];
            }
        }
    }
    Ok(out)
}

/// Concatenates CHW tensors along the channel dimension.
///
/// # Errors
///
/// Rejects empty input lists, non-CHW inputs, and disagreeing spatial
/// dimensions.
pub fn try_concat_channels(inputs: &[&Tensor]) -> Result<Tensor, ShapeError> {
    if inputs.is_empty() {
        return Err(ShapeError::new("concat", "concat needs at least one input"));
    }
    let [_, h, w] = *inputs[0].shape() else {
        return Err(ShapeError::new(
            "concat",
            format!("inputs must be CHW (got a {}-D tensor)", inputs[0].shape().len()),
        ));
    };
    let mut total_c = 0usize;
    for (i, t) in inputs.iter().enumerate() {
        let [c, th, tw] = *t.shape() else {
            return Err(ShapeError::new(
                "concat",
                format!("inputs must be CHW (input {i} is a {}-D tensor)", t.shape().len()),
            ));
        };
        if (th, tw) != (h, w) {
            return Err(ShapeError::new(
                "concat",
                format!(
                    "spatial dimensions must match (input {i} is {th}×{tw}, expected {h}×{w})"
                ),
            ));
        }
        total_c += c;
    }
    let mut out = Tensor::zeros(vec![total_c, h, w]);
    let mut c_off = 0usize;
    for t in inputs {
        let c = t.shape()[0];
        for ci in 0..c {
            for y in 0..h {
                for x in 0..w {
                    *out.at_mut(&[c_off + ci, y, x]) = t.at(&[ci, y, x]);
                }
            }
        }
        c_off += c;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(shape: Vec<usize>) -> Tensor {
        let mut i = 0.0;
        Tensor::from_fn(shape, |_| {
            i += 1.0;
            i
        })
    }

    #[test]
    fn conv2d_identity_kernel() {
        let input = ramp(vec![1, 3, 3]);
        let mut w = Tensor::zeros(vec![1, 1, 1, 1]);
        *w.at_mut(&[0, 0, 0, 0]) = 1.0;
        let out = try_conv2d(&input, &w, None, 1, Padding::Valid).unwrap();
        assert_eq!(out, input);
    }

    #[test]
    fn conv2d_known_values() {
        // Figure 4's setup: 3×3 image, 2×2 filter, valid padding.
        let input = Tensor::from_fn(vec![1, 3, 3], |i| (i[1] * 3 + i[2] + 1) as f64);
        let w = Tensor::from_fn(vec![1, 1, 2, 2], |i| (i[2] * 2 + i[3] + 1) as f64);
        let out = try_conv2d(&input, &w, None, 1, Padding::Valid).unwrap();
        // b11 = 1·1 + 2·2 + 4·3 + 5·4 = 37
        assert_eq!(out.shape(), &[1, 2, 2]);
        assert_eq!(out.at(&[0, 0, 0]), 37.0);
        assert_eq!(out.at(&[0, 0, 1]), 47.0);
        assert_eq!(out.at(&[0, 1, 0]), 67.0);
        assert_eq!(out.at(&[0, 1, 1]), 77.0);
    }

    #[test]
    fn conv2d_same_padding_preserves_size() {
        let input = ramp(vec![2, 5, 5]);
        let w = Tensor::random(vec![3, 2, 3, 3], 1.0, 1);
        let out = try_conv2d(&input, &w, None, 1, Padding::Same).unwrap();
        assert_eq!(out.shape(), &[3, 5, 5]);
    }

    #[test]
    fn conv2d_stride_two() {
        let input = ramp(vec![1, 4, 4]);
        let w = Tensor::from_fn(vec![1, 1, 2, 2], |_| 1.0);
        let out = try_conv2d(&input, &w, None, 2, Padding::Valid).unwrap();
        assert_eq!(out.shape(), &[1, 2, 2]);
        // windows: (1+2+5+6), (3+4+7+8), (9+10+13+14), (11+12+15+16)
        assert_eq!(out.data(), &[14.0, 22.0, 46.0, 54.0]);
    }

    #[test]
    fn conv2d_bias_and_channels() {
        let input = ramp(vec![2, 2, 2]);
        let w = Tensor::from_fn(vec![1, 2, 1, 1], |_| 1.0);
        let out = try_conv2d(&input, &w, Some(&[0.5]), 1, Padding::Valid).unwrap();
        // each output = x[0,y,x] + x[1,y,x] + 0.5
        assert_eq!(out.at(&[0, 0, 0]), 1.0 + 5.0 + 0.5);
    }

    #[test]
    fn matmul_matches_manual() {
        let w = Tensor::new(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let y = try_matmul_vec(&w, &[1.0, 0.0, -1.0], Some(&[10.0, 20.0])).unwrap();
        assert_eq!(y, vec![1.0 - 3.0 + 10.0, 4.0 - 6.0 + 20.0]);
    }

    #[test]
    fn avg_pool_basic() {
        let input = ramp(vec![1, 4, 4]);
        let out = try_avg_pool2d(&input, 2, 2).unwrap();
        assert_eq!(out.data(), &[3.5, 5.5, 11.5, 13.5]);
    }

    #[test]
    fn global_pool_averages_everything() {
        let input = ramp(vec![2, 2, 2]);
        let out = try_global_avg_pool(&input).unwrap();
        assert_eq!(out.data(), &[2.5, 6.5]);
    }

    #[test]
    fn activation_polynomial() {
        let input = Tensor::new(vec![3], vec![0.0, 1.0, -2.0]);
        let out = activation(&input, 0.5, 1.0);
        assert_eq!(out.data(), &[0.0, 1.5, 0.0]);
    }

    #[test]
    fn batch_norm_affine() {
        let input = ramp(vec![2, 1, 2]);
        let out = try_batch_norm(&input, &[2.0, 0.5], &[1.0, -1.0]).unwrap();
        assert_eq!(out.data(), &[3.0, 5.0, 0.5, 1.0]);
    }

    #[test]
    fn concat_stacks_channels() {
        let a = ramp(vec![1, 2, 2]);
        let b = ramp(vec![2, 2, 2]);
        let out = try_concat_channels(&[&a, &b]).unwrap();
        assert_eq!(out.shape(), &[3, 2, 2]);
        assert_eq!(out.at(&[0, 0, 0]), a.at(&[0, 0, 0]));
        assert_eq!(out.at(&[1, 1, 1]), b.at(&[0, 1, 1]));
        assert_eq!(out.at(&[2, 0, 1]), b.at(&[1, 0, 1]));
    }

    #[test]
    fn concat_mismatched_spatial_is_rejected() {
        let a = Tensor::zeros(vec![1, 2, 2]);
        let b = Tensor::zeros(vec![1, 3, 3]);
        let e = try_concat_channels(&[&a, &b]).unwrap_err();
        assert_eq!(e.op, "concat");
        assert!(e.reason.contains("spatial dimensions"), "{e}");
    }

    #[test]
    fn try_ops_reject_bad_shapes_as_values() {
        // Every try_* op reports its contract violation as a ShapeError
        // naming the op, instead of panicking.
        let flat = Tensor::zeros(vec![4]);
        let chw = Tensor::zeros(vec![2, 3, 3]);
        let w_kcrs = Tensor::zeros(vec![1, 1, 2, 2]);

        let e = try_conv2d(&flat, &w_kcrs, None, 1, Padding::Valid).unwrap_err();
        assert_eq!(e.op, "conv2d");
        assert!(e.to_string().contains("must be CHW"), "{e}");

        let e = try_conv2d(&chw, &w_kcrs, None, 1, Padding::Valid).unwrap_err();
        assert!(e.reason.contains("channels"), "{e}");

        let e = try_conv2d(&chw, &Tensor::zeros(vec![1, 2, 5, 5]), None, 1, Padding::Valid)
            .unwrap_err();
        assert!(e.reason.contains("kernel larger"), "{e}");

        let e = try_matmul_vec(&chw, &[0.0; 4], None).unwrap_err();
        assert_eq!(e.op, "matmul");

        let w2 = Tensor::zeros(vec![2, 4]);
        let e = try_matmul_vec(&w2, &[0.0; 3], None).unwrap_err();
        assert!(e.reason.contains("input length"), "{e}");
        let e = try_matmul_vec(&w2, &[0.0; 4], Some(&[0.0; 3])).unwrap_err();
        assert!(e.reason.contains("bias length"), "{e}");

        let e = try_avg_pool2d(&chw, 5, 1).unwrap_err();
        assert_eq!(e.op, "avg_pool2d");

        let e = try_global_avg_pool(&flat).unwrap_err();
        assert_eq!(e.op, "global_avg_pool");

        let e = try_batch_norm(&chw, &[1.0], &[0.0, 0.0]).unwrap_err();
        assert!(e.reason.contains("scale length"), "{e}");

        let e = try_concat_channels(&[]).unwrap_err();
        assert!(e.reason.contains("at least one"), "{e}");
        let e = try_concat_channels(&[&chw, &Tensor::zeros(vec![1, 4, 4])]).unwrap_err();
        assert!(e.reason.contains("spatial dimensions"), "{e}");
    }
}
