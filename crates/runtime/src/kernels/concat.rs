//! Homomorphic channel concatenation (SqueezeNet expand paths).
//!
//! Under HW layout concatenation is *free* — the ciphertext lists are
//! simply joined. Under CHW the source channel blocks are rotated into
//! their destination positions; when a source ciphertext's blocks land
//! contiguously in one destination ciphertext this is rotation-only,
//! otherwise block masks isolate the pieces first.

use super::{apply_mask, rot_signed, KernelError, ScaleConfig};
use crate::ciphertensor::CipherTensor;
use crate::layout::{prev_power_of_two, LayoutKind};
use crate::par;
use chet_hisa::Hisa;
use std::ops::Range;

/// One CHW placement job: rotate (optionally mask first) a source
/// ciphertext's channel run into its destination position.
struct PieceJob {
    /// Index into the flattened source-ciphertext list.
    src: usize,
    /// The source channel blocks a mask isolates (general path only).
    mask: Option<Range<usize>>,
    /// Signed rotation placing the run at its destination offset.
    offset: isize,
    /// Destination ciphertext index.
    dest_ct: usize,
}

/// Concatenates [`CipherTensor`]s along the channel dimension. Layout
/// disagreements (kind, spatial geometry) come back as [`KernelError`]
/// values, so a malformed network cannot kill a serving worker. Piece
/// placement fans out per source ciphertext run; the overlap-add into
/// destination ciphertexts folds on the parent in source order.
pub fn try_hconcat<H: Hisa>(
    h: &mut H,
    inputs: &[&CipherTensor<H::Ct>],
    scales: &ScaleConfig,
) -> Result<CipherTensor<H::Ct>, KernelError> {
    let Some(first_t) = inputs.first() else {
        return Err(KernelError::new("concat", "concat needs at least one input"));
    };
    let first = &first_t.layout;
    for t in inputs {
        let l = &t.layout;
        if l.kind != first.kind {
            return Err(KernelError::new(
                "concat",
                format!(
                    "concat inputs must share layout kind (got {} and {})",
                    first.kind, l.kind
                ),
            ));
        }
        let geo = |l: &crate::layout::Layout| {
            (l.height, l.width, l.h_stride, l.w_stride, l.c_stride)
        };
        if geo(l) != geo(first) {
            return Err(KernelError::new(
                "concat",
                format!(
                    "concat inputs must share spatial geometry ({:?} vs {:?})",
                    geo(first),
                    geo(l)
                ),
            ));
        }
    }
    let total_c: usize = inputs.iter().map(|t| t.layout.channels).sum();
    // Flattened source ciphertexts in (input, ct) order.
    let flat: Vec<&H::Ct> = inputs.iter().flat_map(|t| t.cts.iter()).collect();

    match first.kind {
        LayoutKind::HW => {
            let mut layout = first.clone();
            layout.channels = total_c;
            let cts = par::try_fan_out(h, flat.len(), |h, i| Ok(h.copy(flat[i])))?;
            Ok(CipherTensor { layout, cts })
        }
        LayoutKind::CHW => {
            let mut layout = first.clone();
            layout.channels = total_c;
            layout.channels_per_ct =
                prev_power_of_two(layout.slots / layout.c_stride).max(1).min(total_c);
            let cpc_out = layout.channels_per_ct;

            // Check whether every source ciphertext maps wholly into one
            // destination ciphertext with a single rotation.
            let mut aligned = true;
            {
                let mut g_off = 0usize;
                for t in inputs {
                    let cpc_in = t.layout.channels_per_ct;
                    for (ct_idx, _) in t.cts.iter().enumerate() {
                        let c0 = g_off + ct_idx * cpc_in;
                        let c1 = g_off + t.layout.channels.min((ct_idx + 1) * cpc_in);
                        if c0 / cpc_out != (c1 - 1) / cpc_out {
                            aligned = false;
                        }
                    }
                    g_off += t.layout.channels;
                }
            }

            // Enumerate placement jobs in (input, ct, run) order.
            let mut jobs: Vec<PieceJob> = Vec::new();
            let mut g_off = 0usize;
            let mut src = 0usize;
            for t in inputs {
                let cpc_in = t.layout.channels_per_ct;
                for (ct_idx, _) in t.cts.iter().enumerate() {
                    let local_c0 = ct_idx * cpc_in;
                    let local_c1 = t.layout.channels.min(local_c0 + cpc_in);
                    if aligned {
                        let g0 = g_off + local_c0;
                        let dest_ct = g0 / cpc_out;
                        let delta = (g0 % cpc_out) as isize;
                        jobs.push(PieceJob {
                            src,
                            mask: None,
                            offset: -delta * layout.c_stride as isize,
                            dest_ct,
                        });
                    } else {
                        // General path: isolate each destination run with a
                        // block mask (uniform: every piece gets one mask so
                        // scales stay equal).
                        let mut b = local_c0;
                        while b < local_c1 {
                            let g = g_off + b;
                            let dest_ct = g / cpc_out;
                            // Run of source blocks landing in dest_ct.
                            let run_end = ((dest_ct + 1) * cpc_out - g_off).min(local_c1);
                            let delta = (g % cpc_out) as isize - (b - local_c0) as isize;
                            jobs.push(PieceJob {
                                src,
                                mask: Some((b - local_c0)..(run_end - local_c0)),
                                offset: -delta * layout.c_stride as isize,
                                dest_ct,
                            });
                            b = run_end;
                        }
                    }
                    src += 1;
                }
                g_off += t.layout.channels;
            }

            let pieces: Vec<H::Ct> = par::try_fan_out(h, jobs.len(), |h, j| {
                let job = &jobs[j];
                Ok(match &job.mask {
                    Some(blocks) => {
                        let fill = |mask: &mut [f64]| {
                            let run = blocks.start * layout.c_stride..blocks.end * layout.c_stride;
                            for v in mask.iter_mut().take(run.end).skip(run.start) {
                                *v = 1.0;
                            }
                        };
                        let masked = apply_mask(h, flat[job.src], layout.slots, fill, scales)?;
                        rot_signed(h, &masked, job.offset)?
                    }
                    None => rot_signed(h, flat[job.src], job.offset)?,
                })
            })?;
            let mut out: Vec<Option<H::Ct>> = vec![None; layout.num_cts()];
            for (piece, job) in pieces.into_iter().zip(&jobs) {
                out[job.dest_ct] = Some(match out[job.dest_ct].take() {
                    None => piece,
                    Some(prev) => h.try_add(&prev, &piece)?,
                });
            }
            Ok(CipherTensor {
                layout,
                cts: out.into_iter().map(|c| c.expect("all output cts populated")).collect(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ciphertensor::{decrypt_tensor, try_encrypt_tensor};
    use crate::layout::Layout;
    use chet_ckks::sim::SimCkks;
    use chet_hisa::{EncryptionParams, RotationKeyPolicy};
    use chet_tensor::{ops, Tensor};

    fn sim() -> SimCkks {
        let params = EncryptionParams::rns_ckks(8192, 40, 6);
        SimCkks::new(&params, &RotationKeyPolicy::PowersOfTwo, 5).without_noise()
    }

    fn ramp(c: usize, hh: usize, ww: usize, base: f64) -> Tensor {
        Tensor::from_fn(vec![c, hh, ww], |i| base + (i[0] * 100 + i[1] * 10 + i[2]) as f64)
    }

    #[test]
    fn concat_hw_is_ct_concatenation() {
        let mut h = sim();
        let scales = ScaleConfig::default();
        let a = ramp(2, 3, 3, 0.0);
        let b = ramp(1, 3, 3, 1000.0);
        let la = Layout::hw(2, 3, 3, 0, h.slots());
        let lb = Layout::hw(1, 3, 3, 0, h.slots());
        let ea = try_encrypt_tensor(&mut h, &a, &la, scales.input).unwrap();
        let eb = try_encrypt_tensor(&mut h, &b, &lb, scales.input).unwrap();
        let out = try_hconcat(&mut h, &[&ea, &eb], &scales).unwrap();
        assert_eq!(out.num_cts(), 3);
        let got = decrypt_tensor(&mut h, &out);
        let want = ops::concat_channels(&[&a, &b]);
        assert!(got.max_abs_diff(&want) < 1e-9);
    }

    #[test]
    fn concat_chw_aligned() {
        let mut h = sim();
        let scales = ScaleConfig::default();
        // Blocks of 4x4 grids: c_stride 16; plenty of room -> aligned path.
        let a = ramp(2, 4, 4, 0.0);
        let b = ramp(2, 4, 4, 1000.0);
        let la = Layout::chw(2, 4, 4, 0, h.slots());
        let lb = Layout::chw(2, 4, 4, 0, h.slots());
        let ea = try_encrypt_tensor(&mut h, &a, &la, scales.input).unwrap();
        let eb = try_encrypt_tensor(&mut h, &b, &lb, scales.input).unwrap();
        let out = try_hconcat(&mut h, &[&ea, &eb], &scales).unwrap();
        assert_eq!(out.num_cts(), 1);
        let got = decrypt_tensor(&mut h, &out);
        let want = ops::concat_channels(&[&a, &b]);
        assert!(got.max_abs_diff(&want) < 1e-9, "diff {}", got.max_abs_diff(&want));
    }

    #[test]
    fn concat_three_inputs() {
        let mut h = sim();
        let scales = ScaleConfig::default();
        let ts: Vec<Tensor> = (0..3).map(|i| ramp(1, 2, 2, i as f64 * 50.0)).collect();
        let encs: Vec<_> = ts
            .iter()
            .map(|t| {
                let l = Layout::chw(1, 2, 2, 0, h.slots());
                try_encrypt_tensor(&mut h, t, &l, scales.input).unwrap()
            })
            .collect();
        let refs: Vec<&CipherTensor<_>> = encs.iter().collect();
        let out = try_hconcat(&mut h, &refs, &scales).unwrap();
        let got = decrypt_tensor(&mut h, &out);
        let want = ops::concat_channels(&[&ts[0], &ts[1], &ts[2]]);
        assert!(got.max_abs_diff(&want) < 1e-9);
    }

    #[test]
    fn mixed_kind_concat_is_a_contract_violation() {
        let mut h = sim();
        let scales = ScaleConfig::default();
        let a = ramp(1, 2, 2, 0.0);
        let lhw = Layout::hw(1, 2, 2, 0, h.slots());
        let lchw = Layout::chw(1, 2, 2, 0, h.slots());
        let ea = try_encrypt_tensor(&mut h, &a, &lhw, scales.input).unwrap();
        let eb = try_encrypt_tensor(&mut h, &a, &lchw, scales.input).unwrap();
        let e = try_hconcat(&mut h, &[&ea, &eb], &scales).unwrap_err();
        assert!(matches!(e, KernelError::Contract { kernel: "concat", .. }), "{e:?}");
        assert!(e.to_string().contains("share layout kind"), "{e}");
    }
}
