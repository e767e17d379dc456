//! Tensor-to-vector layout metadata (paper §4.2).
//!
//! A logical CHW tensor is mapped onto one or more FHE vectors. The layout
//! records how: which ciphertext a channel lives in, and the slot strides
//! of the width/height/channel dimensions. Strides admit *margins* — unused
//! (zero) slots between rows and channel blocks — which let convolutions
//! with `Same` padding read zeros instead of wrapped garbage, exactly the
//! "padding between the rows" trick the paper describes.
//!
//! Two layout families are supported, as in the paper:
//!
//! * **HW** — one ciphertext per channel (`N × C` ciphertexts).
//! * **CHW** — multiple channels blocked into each ciphertext.
//!
//! Strided operations (pooled or strided convolutions) *dilate* the layout
//! instead of repacking: the output keeps the physical frame and doubles
//! its strides, so downstream kernels simply scale their rotation offsets.

/// Which layout family a tensor uses (the unit of the compiler's search).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayoutKind {
    /// One ciphertext per channel.
    HW,
    /// Channels blocked into ciphertexts.
    CHW,
}

impl std::fmt::Display for LayoutKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LayoutKind::HW => write!(f, "HW"),
            LayoutKind::CHW => write!(f, "CHW"),
        }
    }
}

/// Physical placement of a logical `[C, H, W]` tensor in FHE vectors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layout {
    /// Layout family.
    pub kind: LayoutKind,
    /// Logical channel count.
    pub channels: usize,
    /// Logical height.
    pub height: usize,
    /// Logical width.
    pub width: usize,
    /// Slots between horizontally adjacent elements.
    pub w_stride: usize,
    /// Slots between vertically adjacent elements.
    pub h_stride: usize,
    /// Slots between channel blocks (CHW only; equals the block span).
    pub c_stride: usize,
    /// Channels packed per ciphertext (1 for HW).
    pub channels_per_ct: usize,
    /// SIMD slots per batch member. With batching this is the *member*
    /// width — the physical ciphertext holds `slots * batch` slots, and
    /// every capacity/span check in the kernels is member-relative.
    pub slots: usize,
    /// Batch members packed along the slot axis (nGraph-HE2-style batch
    /// packing). Member `b` occupies slots `[b * slots, (b + 1) * slots)`;
    /// all kernel rotations are member-relative and act uniformly on every
    /// member because the packing is cyclic with period `slots`.
    pub batch: usize,
}

impl Layout {
    /// Builds an HW layout for a `[c, h, w]` tensor with `margin` zero
    /// columns/rows reserved after each row and below the grid.
    ///
    /// # Panics
    ///
    /// Panics if one padded channel grid does not fit in `slots`.
    pub fn hw(c: usize, h: usize, w: usize, margin: usize, slots: usize) -> Layout {
        let w_stride = 1;
        let h_stride = w + margin;
        let span = h_stride * (h + margin);
        assert!(span <= slots, "channel grid ({span} slots) exceeds vector width {slots}");
        Layout {
            kind: LayoutKind::HW,
            channels: c,
            height: h,
            width: w,
            w_stride,
            h_stride,
            c_stride: span.next_power_of_two(),
            channels_per_ct: 1,
            slots,
            batch: 1,
        }
    }

    /// Builds a CHW layout for a `[c, h, w]` tensor with `margin` zero
    /// columns/rows per block. Block spans are rounded to a power of two so
    /// channel-reduction rotations stay within the used region.
    ///
    /// # Panics
    ///
    /// Panics if a single padded channel block does not fit in `slots`.
    pub fn chw(c: usize, h: usize, w: usize, margin: usize, slots: usize) -> Layout {
        let w_stride = 1;
        let h_stride = w + margin;
        let span = (h_stride * (h + margin)).next_power_of_two();
        assert!(span <= slots, "channel block ({span} slots) exceeds vector width {slots}");
        // Power-of-two block capacity keeps channel-reduction rotations
        // inside the zeroed region (no wrap-around garbage).
        let capacity = prev_power_of_two(slots / span).max(1);
        let channels_per_ct = capacity.min(c).max(1);
        Layout {
            kind: LayoutKind::CHW,
            channels: c,
            height: h,
            width: w,
            w_stride,
            h_stride,
            c_stride: span,
            channels_per_ct,
            slots,
            batch: 1,
        }
    }

    /// A dense vector layout (`[len]` as `[len, 1, 1]` channels at stride 1),
    /// used for dense-layer outputs and global pools.
    pub fn dense_vector(len: usize, slots: usize) -> Layout {
        assert!(len <= slots, "vector of {len} exceeds vector width {slots}");
        Layout {
            kind: LayoutKind::CHW,
            channels: len,
            height: 1,
            width: 1,
            w_stride: 1,
            h_stride: 1,
            c_stride: 1,
            channels_per_ct: len.max(1),
            slots,
            batch: 1,
        }
    }

    /// The same layout with `batch` members packed along the slot axis.
    /// `slots` stays the member width; the physical ciphertext must hold
    /// [`Layout::physical_slots`] slots.
    ///
    /// # Panics
    ///
    /// Panics unless `batch` is a power of two (cyclic member packing
    /// requires the member period to divide the ciphertext width).
    pub fn with_batch(mut self, batch: usize) -> Layout {
        assert!(
            batch.is_power_of_two(),
            "batch ({batch}) must be a power of two so members tile the vector cyclically"
        );
        self.batch = batch;
        self
    }

    /// Physical SIMD slots per ciphertext: member width × batch members.
    pub fn physical_slots(&self) -> usize {
        self.slots * self.batch
    }

    /// Number of ciphertexts the tensor occupies.
    pub fn num_cts(&self) -> usize {
        self.channels.div_ceil(self.channels_per_ct).max(1)
    }

    /// Ciphertext index and slot of logical element `(c, y, x)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    pub fn slot_of(&self, c: usize, y: usize, x: usize) -> (usize, usize) {
        assert!(
            c < self.channels && y < self.height && x < self.width,
            "logical index ({c},{y},{x}) out of bounds"
        );
        let ct = c / self.channels_per_ct;
        let block = c % self.channels_per_ct;
        (ct, block * self.c_stride + y * self.h_stride + x * self.w_stride)
    }

    /// The signed slot offset between elements `(y+dy, x+dx)` and `(y, x)`.
    pub fn offset(&self, dy: isize, dx: isize) -> isize {
        dy * self.h_stride as isize + dx * self.w_stride as isize
    }

    /// Layout of a spatially strided view (strided conv / pooling output):
    /// same physical frame, dilated strides, shrunk logical dims.
    pub fn strided_view(&self, out_h: usize, out_w: usize, stride: usize, out_c: usize) -> Layout {
        Layout {
            kind: self.kind,
            channels: out_c,
            height: out_h,
            width: out_w,
            w_stride: self.w_stride * stride,
            h_stride: self.h_stride * stride,
            c_stride: self.c_stride,
            channels_per_ct: if self.kind == LayoutKind::HW {
                1
            } else {
                prev_power_of_two(self.slots / self.c_stride).max(1).min(out_c).max(1)
            },
            slots: self.slots,
            batch: self.batch,
        }
    }

    /// Writes the slot-indicator mask of one ciphertext of this layout —
    /// the mask kernels multiply by — into a zeroed `slots`-long buffer:
    /// 1.0 at valid element positions.
    pub fn fill_mask(&self, ct_index: usize, mask: &mut [f64]) {
        for c in 0..self.channels {
            if c / self.channels_per_ct != ct_index {
                continue;
            }
            for y in 0..self.height {
                for x in 0..self.width {
                    let (_, slot) = self.slot_of(c, y, x);
                    mask[slot] = 1.0;
                }
            }
        }
    }

    /// Whether every logical element maps inside the vector.
    pub fn validate(&self) -> bool {
        if self.channels == 0 || self.height == 0 || self.width == 0 {
            return false;
        }
        let (_, max_slot) =
            self.slot_of(self.channels - 1, self.height - 1, self.width - 1);
        let (_, max_slot0) = self.slot_of(
            (self.num_cts() - 1) * self.channels_per_ct,
            self.height - 1,
            self.width - 1,
        );
        max_slot < self.slots && max_slot0 < self.slots
    }
}

/// Largest power of two `<= x` (0 for 0).
pub(crate) fn prev_power_of_two(x: usize) -> usize {
    if x == 0 {
        0
    } else {
        1 << (usize::BITS - 1 - x.leading_zeros())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hw_layout_slots() {
        let l = Layout::hw(3, 4, 5, 2, 64);
        assert_eq!(l.num_cts(), 3);
        assert_eq!(l.h_stride, 7);
        let (ct, slot) = l.slot_of(2, 1, 3);
        assert_eq!(ct, 2);
        assert_eq!(slot, 7 + 3);
    }

    #[test]
    fn chw_packs_channels() {
        let l = Layout::chw(4, 3, 3, 0, 64);
        // block span: next_pow2(9) = 16, so 4 channels fit in one ct.
        assert_eq!(l.c_stride, 16);
        assert_eq!(l.channels_per_ct, 4);
        assert_eq!(l.num_cts(), 1);
        let (ct, slot) = l.slot_of(3, 2, 1);
        assert_eq!(ct, 0);
        assert_eq!(slot, 3 * 16 + 2 * 3 + 1);
    }

    #[test]
    fn chw_splits_when_full() {
        let l = Layout::chw(10, 7, 7, 1, 256);
        // block span: next_pow2(8*8)=64; 256/64 = 4 per ct -> 3 cts.
        assert_eq!(l.channels_per_ct, 4);
        assert_eq!(l.num_cts(), 3);
        let (ct, _) = l.slot_of(9, 0, 0);
        assert_eq!(ct, 2);
    }

    #[test]
    fn strided_view_dilates() {
        let l = Layout::hw(1, 8, 8, 0, 128);
        let v = l.strided_view(4, 4, 2, 3);
        assert_eq!(v.h_stride, 16);
        assert_eq!(v.w_stride, 2);
        let (_, slot) = v.slot_of(0, 1, 1);
        assert_eq!(slot, 16 + 2); // input position (2,2)
    }

    #[test]
    fn mask_marks_valid_positions_only() {
        let l = Layout::hw(1, 2, 2, 1, 16);
        let mut m = vec![0.0; l.slots];
        l.fill_mask(0, &mut m);
        // valid slots: 0,1 (row 0), 3,4 (row 1 at h_stride 3)
        let ones: Vec<usize> = m.iter().enumerate().filter(|(_, &v)| v == 1.0).map(|(i, _)| i).collect();
        assert_eq!(ones, vec![0, 1, 3, 4]);
    }

    #[test]
    fn dense_vector_is_contiguous() {
        let l = Layout::dense_vector(10, 64);
        assert_eq!(l.num_cts(), 1);
        assert_eq!(l.slot_of(7, 0, 0), (0, 7));
        assert!(l.validate());
    }

    #[test]
    fn offsets_are_signed() {
        let l = Layout::hw(1, 4, 4, 1, 64);
        assert_eq!(l.offset(-1, 2), -(5isize) + 2);
    }

    #[test]
    #[should_panic(expected = "exceeds vector width")]
    fn oversized_grid_panics() {
        Layout::hw(1, 100, 100, 0, 512);
    }

    #[test]
    fn batch_keeps_member_width() {
        let l = Layout::chw(4, 3, 3, 0, 512).with_batch(8);
        assert_eq!(l.slots, 512);
        assert_eq!(l.physical_slots(), 4096);
        // Member-relative placement is unchanged by batching.
        assert_eq!(l.slot_of(3, 2, 1), Layout::chw(4, 3, 3, 0, 512).slot_of(3, 2, 1));
        // Derived views carry the batch along.
        let v = l.strided_view(1, 1, 2, 4);
        assert_eq!(v.batch, 8);
        assert_eq!(v.physical_slots(), 4096);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_batch_panics() {
        let _ = Layout::hw(1, 4, 4, 0, 64).with_batch(3);
    }

    #[test]
    fn validate_catches_overflow() {
        let mut l = Layout::hw(1, 4, 4, 0, 64);
        assert!(l.validate());
        l.h_stride = 32;
        assert!(!l.validate());
    }
}
