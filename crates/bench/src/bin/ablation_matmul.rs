//! Ablation — dense-layer strategies (DESIGN.md §7).
//!
//! Compares the per-output rotate-reduce dense kernel (general: any
//! layout) against the baby-step/giant-step diagonal kernel (contiguous
//! inputs only): HISA op counts on the simulator and wall time on the real
//! RNS-CKKS backend. Rotations dominate FHE cost, so the `~2·sqrt(n)` vs
//! `out·log(n)` rotation counts decide the winner.

use chet_bench::{fmt_dur, print_table};
use chet_ckks::rns::RnsCkks;
use chet_ckks::sim::SimCkks;
use chet_compiler::verify::domain::{RotationDomain, ScaleDomain};
use chet_compiler::verify::walker::VerifyInterp;
use chet_hisa::cost::HisaOp;
use chet_hisa::{EncryptionParams, Hisa, RotationKeyPolicy, SecurityLevel};
use chet_runtime::ciphertensor::try_encrypt_tensor;
use chet_runtime::kernels::matmul::{try_hmatmul, try_hmatmul_bsgs};
use chet_runtime::kernels::ScaleConfig;
use chet_runtime::layout::Layout;
use chet_tensor::Tensor;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    println!("== Ablation: dense-layer kernels (rotate-reduce vs BSGS diagonals) ==\n");
    let scales = ScaleConfig::REFERENCE;
    let mut rows = Vec::new();
    for (inp, out) in [(64usize, 16usize), (128, 32), (256, 64)] {
        let x = Tensor::from_fn(vec![inp, 1, 1], |i| (i[0] % 13) as f64 * 0.05 - 0.3);
        let w = Tensor::from_fn(vec![out, inp], |i| ((i[0] + i[1] * 3) % 9) as f64 * 0.1 - 0.4);

        // Op counts on the simulator.
        let params = EncryptionParams::rns_ckks(8192, 30, 4).with_security(SecurityLevel::Insecure);
        let count_rots = |bsgs: bool| {
            let mut h = SimCkks::new(&params, &RotationKeyPolicy::PowersOfTwo, 1).without_noise();
            let layout = Layout::dense_vector(inp, h.slots());
            let enc = try_encrypt_tensor(&mut h, &x, &layout, scales.input)
                .expect("input fits the slots");
            if bsgs {
                try_hmatmul_bsgs(&mut h, &enc, &w, None, &scales).expect("BSGS dense layer");
            } else {
                try_hmatmul(&mut h, &enc, &w, None, &scales).expect("dense layer");
            }
            (h.op_count(HisaOp::Rotate), h.op_count(HisaOp::MulPlain))
        };
        let (std_rots, std_muls) = count_rots(false);
        let (bsgs_rots, bsgs_muls) = count_rots(true);

        // Wall time on the real backend (exact keys for each strategy).
        let time_real = |bsgs: bool| {
            let probe =
                SimCkks::new(&params, &RotationKeyPolicy::PowersOfTwo, 1).without_noise();
            let layout = Layout::dense_vector(inp, probe.slots());
            // Collect the exact rotation steps with an abstract walk.
            let steps: std::collections::BTreeSet<usize> = {
                let domain =
                    (ScaleDomain::new(scales.input), RotationDomain::collector(probe.slots()));
                let mut walk = VerifyInterp::with_domain(probe.slots(), domain, Arc::default());
                let enc = try_encrypt_tensor(&mut walk, &x, &layout, scales.input)
                    .expect("input fits the slots");
                if bsgs {
                    try_hmatmul_bsgs(&mut walk, &enc, &w, None, &scales).expect("BSGS dense layer");
                } else {
                    try_hmatmul(&mut walk, &enc, &w, None, &scales).expect("dense layer");
                }
                walk.domain.1.used
            };
            let mut h = RnsCkks::new(&params, &RotationKeyPolicy::Exact(steps), 7);
            let enc = try_encrypt_tensor(&mut h, &x, &layout, scales.input)
                .expect("input fits the slots");
            let t0 = Instant::now();
            if bsgs {
                try_hmatmul_bsgs(&mut h, &enc, &w, None, &scales).expect("BSGS dense layer");
            } else {
                try_hmatmul(&mut h, &enc, &w, None, &scales).expect("dense layer");
            }
            t0.elapsed()
        };
        let t_std = time_real(false);
        let t_bsgs = time_real(true);

        rows.push(vec![
            format!("{inp} -> {out}"),
            format!("{std_rots} rot / {std_muls} pmul"),
            format!("{bsgs_rots} rot / {bsgs_muls} pmul"),
            fmt_dur(t_std),
            fmt_dur(t_bsgs),
            format!("{:.2}x", t_std.as_secs_f64() / t_bsgs.as_secs_f64().max(1e-9)),
        ]);
    }
    print_table(
        &["Layer", "rotate-reduce ops", "BSGS ops", "rotate-reduce", "BSGS", "speedup"],
        &rows,
    );
    println!(
        "\nExpected shape: BSGS trades plaintext multiplies for rotations and wins \
         as the layer grows (rotations are the expensive primitive, Table 1)."
    );
}
