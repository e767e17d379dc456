//! Cost model for HISA primitives (paper Table 1 + §5.3).
//!
//! The data-layout selection pass estimates circuit execution time by
//! summing per-op costs. Costs follow the asymptotic complexities of paper
//! Table 1, with per-op constants that can be tuned from microbenchmarks
//! ("we use a combination of theoretical and experimental analysis").

use crate::params::SchemeKind;

/// The HISA primitive kinds that appear in circuit execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HisaOp {
    /// Ciphertext ± ciphertext (also covers the scalar-add flavors, which
    /// cost the same).
    Add,
    /// Ciphertext × scalar constant.
    MulScalar,
    /// Ciphertext × encoded plaintext vector.
    MulPlain,
    /// Ciphertext × ciphertext (includes relinearization).
    MulCipher,
    /// Slot rotation (either direction).
    Rotate,
    /// Rescaling.
    Rescale,
    /// Plaintext vector encoding (an NTT per RNS limb). Kernels encode
    /// weight vectors per call, so encoding is a first-class cost, not
    /// free setup. Appended last so the artifact codec's `ALL_OPS`-index
    /// tags for the original six ops stay stable.
    Encode,
    /// A rotation that shares a *hoisted* key-switch decomposition with an
    /// earlier rotation of the same ciphertext (nGraph-HE2 style batching,
    /// implemented by the RNS backend's `rot_left_many`). The gadget
    /// decomposition — the `O(N log N · r²)` base conversions and NTTs that
    /// dominate a full rotation — is paid once per source ciphertext; each
    /// extra rotation only pays the key inner product and modulus-down
    /// switch. Appended after `Encode` for the same tag-stability reason.
    RotateHoisted,
}

/// All [`HisaOp`] variants, for iteration in calibration and reports.
pub const ALL_OPS: [HisaOp; 8] = [
    HisaOp::Add,
    HisaOp::MulScalar,
    HisaOp::MulPlain,
    HisaOp::MulCipher,
    HisaOp::Rotate,
    HisaOp::Rescale,
    HisaOp::Encode,
    HisaOp::RotateHoisted,
];

impl HisaOp {
    /// The op's name in reports and calibration files (its `Display`).
    pub fn name(self) -> &'static str {
        match self {
            HisaOp::Add => "add",
            HisaOp::MulScalar => "mulScalar",
            HisaOp::MulPlain => "mulPlain",
            HisaOp::MulCipher => "mul",
            HisaOp::Rotate => "rotate",
            HisaOp::Rescale => "rescale",
            HisaOp::Encode => "encode",
            HisaOp::RotateHoisted => "rotateHoisted",
        }
    }
}

impl std::fmt::Display for HisaOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Inverse of [`HisaOp`]'s `Display` names, for parsing calibration files.
pub fn op_from_name(name: &str) -> Option<HisaOp> {
    ALL_OPS.iter().copied().find(|op| op.to_string() == name)
}

/// Modulus state of a ciphertext at the point an op executes: costs grow
/// with the remaining modulus (`log Q` for CKKS, chain length `r` for
/// RNS-CKKS).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LevelInfo {
    /// Remaining `log2 Q` of the operand ciphertext.
    pub log_q: f64,
    /// Remaining RNS chain length `r` (1 for the power-of-two variant).
    pub rns_len: usize,
}

/// Per-scheme cost model with tunable constants.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    kind: SchemeKind,
    add: f64,
    mul_scalar: f64,
    mul_plain: f64,
    mul_cipher: f64,
    rotate: f64,
    rescale: f64,
    encode: f64,
    /// Added after the original seven constants (appended last in
    /// [`ALL_OPS`] so older artifacts' op tags stay stable).
    rotate_hoisted: f64,
}

impl CostModel {
    /// Default constants for a scheme variant. The absolute magnitudes are
    /// arbitrary (the layout pass only compares alternatives); the *ratios*
    /// reflect microbenchmarks of the two backends in this repository — e.g.
    /// `mulPlain` is much more expensive than `mulScalar` under bigint CKKS
    /// but identical under RNS-CKKS, the asymmetry that drives the paper's
    /// HW-vs-CHW layout observations (§4.2, Tables 5/6).
    pub fn for_scheme(kind: SchemeKind) -> Self {
        match kind {
            SchemeKind::Ckks => CostModel {
                kind,
                add: 1.0,
                mul_scalar: 1.2,
                mul_plain: 1.0,
                mul_cipher: 2.2,
                rotate: 2.0,
                rescale: 0.6,
                encode: 0.8,
                rotate_hoisted: 2.0,
            },
            SchemeKind::RnsCkks => CostModel {
                kind,
                add: 1.0,
                mul_scalar: 1.1,
                mul_plain: 1.2,
                mul_cipher: 2.5,
                rotate: 2.2,
                rescale: 0.8,
                encode: 1.0,
                rotate_hoisted: 1.0,
            },
        }
    }

    /// The scheme variant this model describes.
    pub fn kind(&self) -> SchemeKind {
        self.kind
    }

    /// Overrides a single constant (used by microbenchmark calibration).
    pub fn set_constant(&mut self, op: HisaOp, value: f64) {
        let slot = match op {
            HisaOp::Add => &mut self.add,
            HisaOp::MulScalar => &mut self.mul_scalar,
            HisaOp::MulPlain => &mut self.mul_plain,
            HisaOp::MulCipher => &mut self.mul_cipher,
            HisaOp::Rotate => &mut self.rotate,
            HisaOp::Rescale => &mut self.rescale,
            HisaOp::Encode => &mut self.encode,
            HisaOp::RotateHoisted => &mut self.rotate_hoisted,
        };
        *slot = value;
    }

    /// The tunable constant for one op (the value [`Self::set_constant`]
    /// writes), used by calibration reports.
    pub fn constant(&self, op: HisaOp) -> f64 {
        match op {
            HisaOp::Add => self.add,
            HisaOp::MulScalar => self.mul_scalar,
            HisaOp::MulPlain => self.mul_plain,
            HisaOp::MulCipher => self.mul_cipher,
            HisaOp::Rotate => self.rotate,
            HisaOp::Rescale => self.rescale,
            HisaOp::Encode => self.encode,
            HisaOp::RotateHoisted => self.rotate_hoisted,
        }
    }

    /// The op's cost with its constant factored out — the "unit work" that
    /// calibration fits a microsecond-per-unit constant against.
    pub fn unit_work(&self, op: HisaOp, n: usize, lvl: LevelInfo) -> f64 {
        self.op_cost(op, n, lvl) / self.constant(op)
    }

    /// Estimated cost of one op at ring degree `n` and modulus state `lvl`
    /// (paper Table 1 asymptotics).
    pub fn op_cost(&self, op: HisaOp, n: usize, lvl: LevelInfo) -> f64 {
        let nf = n as f64;
        let log_n = nf.log2();
        match self.kind {
            SchemeKind::Ckks => {
                // M(Q) = log^1.58 Q (HEAAN's large-integer multiply).
                let m_q = lvl.log_q.max(2.0).powf(1.58);
                match op {
                    HisaOp::Add => self.add * nf * lvl.log_q.max(1.0),
                    HisaOp::MulScalar => self.mul_scalar * nf * m_q,
                    HisaOp::MulPlain => self.mul_plain * nf * log_n * m_q,
                    HisaOp::MulCipher => self.mul_cipher * nf * log_n * m_q,
                    HisaOp::Rotate => self.rotate * nf * log_n * m_q,
                    HisaOp::Rescale => self.rescale * nf * lvl.log_q.max(1.0),
                    HisaOp::Encode => self.encode * nf * log_n * m_q,
                    // The bigint backend has no hoisting; price as a full
                    // rotation so mixed-scheme callers stay conservative.
                    HisaOp::RotateHoisted => self.rotate_hoisted * nf * log_n * m_q,
                }
            }
            SchemeKind::RnsCkks => {
                let r = lvl.rns_len.max(1) as f64;
                match op {
                    HisaOp::Add => self.add * nf * r,
                    HisaOp::MulScalar => self.mul_scalar * nf * r,
                    HisaOp::MulPlain => self.mul_plain * nf * r,
                    HisaOp::MulCipher => self.mul_cipher * nf * log_n * r * r,
                    HisaOp::Rotate => self.rotate * nf * log_n * r * r,
                    HisaOp::Rescale => self.rescale * nf * log_n * r,
                    // One negacyclic NTT per RNS limb.
                    HisaOp::Encode => self.encode * nf * log_n * r,
                    // Shares the O(N log N · r²) gadget decomposition with an
                    // earlier rotation of the same ciphertext: pays only the
                    // key inner product (N·r²) and the special-prime
                    // mod-down NTTs (N log N · r).
                    HisaOp::RotateHoisted => self.rotate_hoisted * nf * r * (r + log_n),
                }
            }
        }
    }
}

/// One microbenchmark observation: `op` ran at ring degree `n` and modulus
/// state `lvl` and took `measured_us` microseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostSample {
    pub op: HisaOp,
    pub n: usize,
    pub lvl: LevelInfo,
    pub measured_us: f64,
}

/// Per-op result of [`calibrate`]: the fitted microsecond constant and the
/// worst relative prediction error over that op's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpFit {
    pub op: HisaOp,
    /// Fitted constant (µs per unit of Table 1 work). 0.0 if no samples.
    pub constant: f64,
    /// Number of samples the fit used.
    pub samples: usize,
    /// max over samples of |predicted − measured| / measured.
    pub max_rel_err: f64,
}

/// Fits per-op microsecond constants to microbenchmark samples by
/// least-squares through the origin: for each op, with `u_i` the Table 1
/// unit work of sample `i` and `t_i` its measured microseconds, the
/// constant is `k = Σ(u_i·t_i) / Σ(u_i²)` — the scale that minimizes
/// Σ(k·u_i − t_i)². Ops with no samples keep the default constant (whose
/// absolute magnitude is then meaningless next to calibrated ones, so
/// calibration benchmarks should cover every op they want priced).
///
/// The returned model predicts *microseconds* from [`CostModel::op_cost`].
pub fn calibrate(kind: SchemeKind, samples: &[CostSample]) -> (CostModel, Vec<OpFit>) {
    let unit = CostModel::for_scheme(kind);
    let mut model = CostModel::for_scheme(kind);
    let mut fits = Vec::new();
    for op in ALL_OPS {
        let mut num = 0.0;
        let mut den = 0.0;
        let mut n_samples = 0;
        for s in samples.iter().filter(|s| s.op == op) {
            let u = unit.unit_work(op, s.n, s.lvl);
            num += u * s.measured_us;
            den += u * u;
            n_samples += 1;
        }
        if n_samples == 0 || den == 0.0 {
            fits.push(OpFit { op, constant: 0.0, samples: 0, max_rel_err: 0.0 });
            continue;
        }
        let k = num / den;
        model.set_constant(op, k);
        let mut max_rel_err = 0.0f64;
        for s in samples.iter().filter(|s| s.op == op) {
            let predicted = model.op_cost(op, s.n, s.lvl);
            if s.measured_us > 0.0 {
                max_rel_err = max_rel_err.max((predicted - s.measured_us).abs() / s.measured_us);
            }
        }
        fits.push(OpFit { op, constant: k, samples: n_samples, max_rel_err });
    }
    (model, fits)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lvl(log_q: f64, r: usize) -> LevelInfo {
        LevelInfo { log_q, rns_len: r }
    }

    #[test]
    fn rns_add_linear_in_chain_length() {
        let m = CostModel::for_scheme(SchemeKind::RnsCkks);
        let c1 = m.op_cost(HisaOp::Add, 8192, lvl(120.0, 2));
        let c2 = m.op_cost(HisaOp::Add, 8192, lvl(240.0, 4));
        assert!((c2 / c1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn rns_mul_quadratic_in_chain_length() {
        let m = CostModel::for_scheme(SchemeKind::RnsCkks);
        let c1 = m.op_cost(HisaOp::MulCipher, 8192, lvl(120.0, 2));
        let c2 = m.op_cost(HisaOp::MulCipher, 8192, lvl(240.0, 4));
        assert!((c2 / c1 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn ckks_scalar_cheaper_than_plain() {
        // The HW-layout convolution advantage under HEAAN (paper §4.2): a
        // mulScalar lacks the log N factor a mulPlain carries.
        let m = CostModel::for_scheme(SchemeKind::Ckks);
        let l = lvl(300.0, 1);
        assert!(
            m.op_cost(HisaOp::MulScalar, 16384, l) * 4.0
                < m.op_cost(HisaOp::MulPlain, 16384, l)
        );
    }

    #[test]
    fn rns_scalar_and_plain_comparable() {
        let m = CostModel::for_scheme(SchemeKind::RnsCkks);
        let l = lvl(300.0, 5);
        let s = m.op_cost(HisaOp::MulScalar, 16384, l);
        let p = m.op_cost(HisaOp::MulPlain, 16384, l);
        assert!(p / s < 2.0, "mulPlain and mulScalar should be within 2x in RNS");
    }

    #[test]
    fn costs_grow_with_degree() {
        for kind in [SchemeKind::Ckks, SchemeKind::RnsCkks] {
            let m = CostModel::for_scheme(kind);
            for op in ALL_OPS {
                let small = m.op_cost(op, 4096, lvl(100.0, 3));
                let large = m.op_cost(op, 32768, lvl(100.0, 3));
                assert!(large > small, "{op} cost must grow with N under {kind:?}");
            }
        }
    }

    #[test]
    fn calibrate_recovers_exact_constants() {
        // Samples generated from a known model must fit back to it exactly.
        let mut truth = CostModel::for_scheme(SchemeKind::RnsCkks);
        truth.set_constant(HisaOp::Rotate, 3.25e-3);
        truth.set_constant(HisaOp::Add, 1.5e-5);
        let mut samples = Vec::new();
        for r in [2usize, 4, 6] {
            for op in [HisaOp::Rotate, HisaOp::Add] {
                samples.push(CostSample {
                    op,
                    n: 8192,
                    lvl: lvl(60.0 * r as f64, r),
                    measured_us: truth.op_cost(op, 8192, lvl(60.0 * r as f64, r)),
                });
            }
        }
        let (fitted, fits) = calibrate(SchemeKind::RnsCkks, &samples);
        for op in [HisaOp::Rotate, HisaOp::Add] {
            assert!((fitted.constant(op) - truth.constant(op)).abs() / truth.constant(op) < 1e-9);
            let fit = fits.iter().find(|f| f.op == op).unwrap();
            assert_eq!(fit.samples, 3);
            assert!(fit.max_rel_err < 1e-9);
        }
        // Unsampled ops report a zero-sample fit and keep defaults.
        let enc = fits.iter().find(|f| f.op == HisaOp::Encode).unwrap();
        assert_eq!(enc.samples, 0);
    }

    #[test]
    fn op_names_roundtrip() {
        for op in ALL_OPS {
            assert_eq!(op_from_name(&op.to_string()), Some(op));
        }
        assert_eq!(op_from_name("nonsense"), None);
    }

    #[test]
    fn unit_work_factors_out_constant() {
        let m = CostModel::for_scheme(SchemeKind::RnsCkks);
        for op in ALL_OPS {
            let u = m.unit_work(op, 8192, lvl(120.0, 3));
            assert!((u * m.constant(op) - m.op_cost(op, 8192, lvl(120.0, 3))).abs() < 1e-9);
        }
    }

    #[test]
    fn set_constant_rescales_cost() {
        let mut m = CostModel::for_scheme(SchemeKind::RnsCkks);
        let before = m.op_cost(HisaOp::Rotate, 8192, lvl(100.0, 2));
        m.set_constant(HisaOp::Rotate, 4.4);
        let after = m.op_cost(HisaOp::Rotate, 8192, lvl(100.0, 2));
        assert!((after / before - 2.0).abs() < 1e-9);
    }
}
