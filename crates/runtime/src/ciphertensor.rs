//! Encrypted tensors: the HTC's `CipherTensor` datatype (paper §4.2).

use crate::layout::Layout;
use chet_hisa::{Hisa, HisaError};
use chet_tensor::Tensor;

/// An encrypted CHW tensor: layout metadata (plain integers — leaks nothing
/// about the data) plus one ciphertext per layout slot group.
#[derive(Debug, Clone)]
pub struct CipherTensor<C> {
    /// Physical layout of the logical tensor.
    pub layout: Layout,
    /// Ciphertexts in layout order.
    pub cts: Vec<C>,
}

impl<C> CipherTensor<C> {
    /// Logical CHW shape.
    pub fn shape(&self) -> [usize; 3] {
        [self.layout.channels, self.layout.height, self.layout.width]
    }

    /// Number of ciphertexts.
    pub fn num_cts(&self) -> usize {
        self.cts.len()
    }
}

/// Packs a plain CHW tensor into per-ciphertext slot vectors for a layout.
pub fn pack_tensor(tensor: &Tensor, layout: &Layout) -> Vec<Vec<f64>> {
    let [c, h, w] = *tensor.shape() else { panic!("pack_tensor expects CHW") };
    assert_eq!(
        (c, h, w),
        (layout.channels, layout.height, layout.width),
        "tensor shape must match layout dims"
    );
    let mut vecs = vec![vec![0.0; layout.slots]; layout.num_cts()];
    for ci in 0..c {
        for y in 0..h {
            for x in 0..w {
                let (ct, slot) = layout.slot_of(ci, y, x);
                vecs[ct][slot] = tensor.at(&[ci, y, x]);
            }
        }
    }
    vecs
}

/// Packs a batch of plain CHW tensors into *physical-width* slot vectors:
/// member `b` of the batch occupies slots `[b * layout.slots,
/// (b + 1) * layout.slots)` of every ciphertext. Unused members (when
/// `tensors.len() < layout.batch`) stay zero, so a partial batch behaves
/// exactly like zero-padded junk slots.
///
/// # Panics
///
/// Panics when more tensors than `layout.batch` members are supplied, or
/// when any tensor's shape disagrees with the layout dims.
pub fn pack_batch(tensors: &[&Tensor], layout: &Layout) -> Vec<Vec<f64>> {
    assert!(
        tensors.len() <= layout.batch,
        "batch of {} tensors exceeds layout batch capacity {}",
        tensors.len(),
        layout.batch
    );
    let mut vecs = vec![vec![0.0; layout.physical_slots()]; layout.num_cts()];
    for (b, tensor) in tensors.iter().enumerate() {
        let member = pack_tensor(tensor, layout);
        let base = b * layout.slots;
        for (ct, mv) in member.into_iter().enumerate() {
            vecs[ct][base..base + layout.slots].copy_from_slice(&mv);
        }
    }
    vecs
}

/// Unpacks member `b` of a batch-packed physical slot vector set back into
/// a plain CHW tensor.
pub fn unpack_batch_member(vecs: &[Vec<f64>], layout: &Layout, b: usize) -> Tensor {
    assert!(b < layout.batch, "member {b} out of range for batch {}", layout.batch);
    let base = b * layout.slots;
    let member: Vec<Vec<f64>> =
        vecs.iter().map(|v| v[base..base + layout.slots].to_vec()).collect();
    unpack_tensor(&member, layout)
}

/// Unpacks per-ciphertext slot vectors back into a plain CHW tensor.
pub fn unpack_tensor(vecs: &[Vec<f64>], layout: &Layout) -> Tensor {
    let mut out = Tensor::zeros(vec![layout.channels, layout.height, layout.width]);
    for c in 0..layout.channels {
        for y in 0..layout.height {
            for x in 0..layout.width {
                let (ct, slot) = layout.slot_of(c, y, x);
                *out.at_mut(&[c, y, x]) = vecs[ct][slot];
            }
        }
    }
    out
}

/// Encrypts a plain tensor into a [`CipherTensor`] under the given layout
/// and input scale (the client-side step of the paper's Figure 3). Encode
/// failures (slot overflow) come back as values.
pub fn try_encrypt_tensor<H: Hisa>(
    h: &mut H,
    tensor: &Tensor,
    layout: &Layout,
    scale: f64,
) -> Result<CipherTensor<H::Ct>, HisaError> {
    assert_eq!(
        layout.physical_slots(),
        h.slots(),
        "layout slot width must match the scheme"
    );
    // Member vectors are `layout.slots` wide; encode zero-pads to the
    // physical width, which places the tensor in batch member 0 and leaves
    // any remaining members zero — identical to `pack_batch` of one.
    let mut cts = Vec::with_capacity(layout.num_cts());
    for v in pack_tensor(tensor, layout) {
        let pt = h.try_encode(&v, scale)?;
        cts.push(h.encrypt(&pt));
    }
    Ok(CipherTensor { layout: layout.clone(), cts })
}

/// Encrypts a batch of plain tensors into one [`CipherTensor`] with the
/// members packed along the slot axis (see [`pack_batch`]).
pub fn try_encrypt_batch<H: Hisa>(
    h: &mut H,
    tensors: &[&Tensor],
    layout: &Layout,
    scale: f64,
) -> Result<CipherTensor<H::Ct>, HisaError> {
    assert_eq!(
        layout.physical_slots(),
        h.slots(),
        "layout slot width must match the scheme"
    );
    let mut cts = Vec::with_capacity(layout.num_cts());
    for v in pack_batch(tensors, layout) {
        let pt = h.try_encode(&v, scale)?;
        cts.push(h.encrypt(&pt));
    }
    Ok(CipherTensor { layout: layout.clone(), cts })
}

/// Decrypts every batch member of a [`CipherTensor`] back into plain
/// tensors (`layout.batch` of them, in member order).
pub fn decrypt_batch<H: Hisa>(h: &mut H, ct: &CipherTensor<H::Ct>) -> Vec<Tensor> {
    let vecs: Vec<Vec<f64>> = ct
        .cts
        .iter()
        .map(|c| {
            let pt = h.decrypt(c);
            h.decode(&pt)
        })
        .collect();
    (0..ct.layout.batch).map(|b| unpack_batch_member(&vecs, &ct.layout, b)).collect()
}

/// Decrypts a [`CipherTensor`] back into a plain tensor.
pub fn decrypt_tensor<H: Hisa>(h: &mut H, ct: &CipherTensor<H::Ct>) -> Tensor {
    let vecs: Vec<Vec<f64>> = ct
        .cts
        .iter()
        .map(|c| {
            let pt = h.decrypt(c);
            h.decode(&pt)
        })
        .collect();
    unpack_tensor(&vecs, &ct.layout)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{Layout, LayoutKind};

    fn ramp(c: usize, h: usize, w: usize) -> Tensor {
        Tensor::from_fn(vec![c, h, w], |i| (i[0] * 100 + i[1] * 10 + i[2]) as f64)
    }

    #[test]
    fn pack_unpack_roundtrip_hw() {
        let t = ramp(3, 4, 5);
        let l = Layout::hw(3, 4, 5, 2, 64);
        let packed = pack_tensor(&t, &l);
        assert_eq!(packed.len(), 3);
        assert_eq!(unpack_tensor(&packed, &l), t);
    }

    #[test]
    fn pack_unpack_roundtrip_chw() {
        let t = ramp(6, 3, 3);
        let l = Layout::chw(6, 3, 3, 1, 64);
        assert_eq!(l.kind, LayoutKind::CHW);
        let packed = pack_tensor(&t, &l);
        assert_eq!(unpack_tensor(&packed, &l), t);
    }

    #[test]
    fn margins_stay_zero() {
        let t = ramp(1, 2, 2);
        let l = Layout::hw(1, 2, 2, 2, 32);
        let packed = pack_tensor(&t, &l);
        // valid slots: 0,1 then 4,5 (h_stride 4); everything else zero.
        let nonzero: Vec<usize> = packed[0]
            .iter()
            .enumerate()
            .filter(|(_, &v)| v != 0.0)
            .map(|(i, _)| i)
            .collect();
        assert!(nonzero.iter().all(|i| [1usize, 4, 5].contains(i)), "{nonzero:?}");
    }

    #[test]
    #[should_panic(expected = "match layout dims")]
    fn shape_mismatch_panics() {
        pack_tensor(&ramp(2, 2, 2), &Layout::hw(1, 2, 2, 0, 16));
    }

    #[test]
    fn batch_pack_places_members_at_member_offsets() {
        let a = ramp(2, 3, 3);
        let b = ramp(2, 3, 3);
        let l = Layout::chw(2, 3, 3, 0, 32).with_batch(2);
        let packed = pack_batch(&[&a, &b], &l);
        assert_eq!(packed[0].len(), 64);
        assert_eq!(unpack_batch_member(&packed, &l, 0), a);
        assert_eq!(unpack_batch_member(&packed, &l, 1), b);
        // A partial batch leaves the trailing member zero.
        let partial = pack_batch(&[&a], &l);
        assert!(partial[0][32..].iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "exceeds layout batch capacity")]
    fn oversized_batch_panics() {
        let t = ramp(1, 2, 2);
        let l = Layout::hw(1, 2, 2, 0, 16).with_batch(2);
        pack_batch(&[&t, &t, &t], &l);
    }

    #[test]
    fn encrypt_decrypt_batch_roundtrip() {
        use chet_ckks::sim::SimCkks;
        use chet_hisa::{EncryptionParams, RotationKeyPolicy};
        let params = EncryptionParams::rns_ckks(8192, 40, 6);
        let mut h = SimCkks::new(&params, &RotationKeyPolicy::PowersOfTwo, 5).without_noise();
        let members: Vec<Tensor> =
            (0..4).map(|i| Tensor::from_fn(vec![2, 3, 3], |ix| (i * 50 + ix[0] * 9 + ix[1] * 3 + ix[2]) as f64 * 0.1)).collect();
        let refs: Vec<&Tensor> = members.iter().collect();
        let l = Layout::chw(2, 3, 3, 0, h.slots() / 4).with_batch(4);
        let enc = try_encrypt_batch(&mut h, &refs, &l, 2f64.powi(30)).unwrap();
        let got = decrypt_batch(&mut h, &enc);
        assert_eq!(got.len(), 4);
        for (g, w) in got.iter().zip(&members) {
            assert!(g.max_abs_diff(w) < 1e-9);
        }
    }
}
