//! Encryption parameters shared by schemes and the parameter-selection pass.

use crate::security::{max_log_q, SecurityLevel};
use chet_math::prime::ntt_primes;

/// Which CKKS variant a backend implements (paper §2.2–2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// HEAAN v1.0-style CKKS: `Q = 2^L`, big-integer coefficients,
    /// power-of-two rescaling.
    Ckks,
    /// SEAL v3.1-style RNS-CKKS: `Q = Π q_i` for word-sized NTT primes,
    /// rescaling by chain primes.
    RnsCkks,
}

impl std::fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchemeKind::Ckks => write!(f, "CKKS (HEAAN-style)"),
            SchemeKind::RnsCkks => write!(f, "RNS-CKKS (SEAL-style)"),
        }
    }
}

/// The coefficient modulus, in the representation native to each variant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModulusSpec {
    /// `Q = 2^log_q`, plus a special key-switching modulus `P = 2^log_special`.
    PowerOfTwo {
        /// log2 of the ciphertext modulus.
        log_q: u32,
        /// log2 of the special modulus used only inside key switching.
        log_special: u32,
    },
    /// `Q = Π primes`, plus one special key-switching prime.
    PrimeChain {
        /// The rescaling chain `q_0 … q_{r-1}` (consumed back to front).
        primes: Vec<u64>,
        /// The special key-switching prime `p`.
        special: u64,
    },
}

impl ModulusSpec {
    /// Which scheme variant this modulus belongs to.
    pub fn kind(&self) -> SchemeKind {
        match self {
            ModulusSpec::PowerOfTwo { .. } => SchemeKind::Ckks,
            ModulusSpec::PrimeChain { .. } => SchemeKind::RnsCkks,
        }
    }

    /// `log2 Q` of the ciphertext modulus (excluding the special modulus).
    pub fn log_q(&self) -> f64 {
        match self {
            ModulusSpec::PowerOfTwo { log_q, .. } => *log_q as f64,
            ModulusSpec::PrimeChain { primes, .. } => {
                primes.iter().map(|&p| (p as f64).log2()).sum()
            }
        }
    }

    /// Total `log2 (Q·P)` including the special modulus — the quantity the
    /// security table constrains.
    pub fn total_log_q(&self) -> f64 {
        match self {
            ModulusSpec::PowerOfTwo { log_q, log_special } => (*log_q + *log_special) as f64,
            ModulusSpec::PrimeChain { primes, special } => {
                primes.iter().map(|&p| (p as f64).log2()).sum::<f64>() + (*special as f64).log2()
            }
        }
    }

    /// Length of the rescaling chain (`r` in the paper; the CKKS power-of-two
    /// variant reports 1).
    pub fn chain_len(&self) -> usize {
        match self {
            ModulusSpec::PowerOfTwo { .. } => 1,
            ModulusSpec::PrimeChain { primes, .. } => primes.len(),
        }
    }
}

/// Complete encryption parameters for a CKKS-family scheme instance.
#[derive(Debug, Clone, PartialEq)]
pub struct EncryptionParams {
    /// Ring degree `N` (power of two). SIMD width is `N/2`.
    pub degree: usize,
    /// The coefficient modulus.
    pub modulus: ModulusSpec,
    /// Security level the parameters are meant to satisfy.
    pub security: SecurityLevel,
    /// Standard deviation of the discrete Gaussian error distribution.
    pub error_stddev: f64,
}

/// Error from [`EncryptionParams::validate`]. Each variant carries the
/// offending value and the limit it violated so callers (and the compiler's
/// repair loop) can act on it without parsing strings.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamsError {
    /// The ring degree is not a supported power of two.
    BadDegree {
        /// The rejected degree.
        got: usize,
        /// Smallest supported degree.
        min: usize,
        /// Largest supported degree.
        max: usize,
    },
    /// The coefficient modulus has (essentially) no bits.
    EmptyModulus {
        /// `log2 Q` of the rejected modulus.
        got_log_q: f64,
    },
    /// The total modulus exceeds the security table's budget.
    OverBudget {
        /// Total `log2 (Q·P)` of the rejected parameters, in bits.
        got_bits: f64,
        /// The security table's budget for this degree and level, in bits.
        limit_bits: u32,
        /// Ring degree the budget was looked up for.
        degree: usize,
        /// Security level the budget was looked up for.
        security: SecurityLevel,
    },
}

impl std::fmt::Display for ParamsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid encryption parameters: ")?;
        match self {
            ParamsError::BadDegree { got, min, max } => {
                write!(f, "ring degree {got} must be a power of two in [{min}, {max}]")
            }
            ParamsError::EmptyModulus { got_log_q } => {
                write!(f, "coefficient modulus is empty ({got_log_q:.2} bits)")
            }
            ParamsError::OverBudget { got_bits, limit_bits, degree, security } => write!(
                f,
                "total modulus {got_bits:.0} bits exceeds the {limit_bits}-bit budget \
                 for N = {degree} at {security:?}"
            ),
        }
    }
}

impl std::error::Error for ParamsError {}

impl EncryptionParams {
    /// Bit size used for RNS chain primes, matching the 60-bit primes SEAL
    /// distributes (paper §5.2 footnote). Scale primes in the middle of the
    /// chain are generated at the working-scale size by the compiler.
    pub const DEFAULT_SPECIAL_PRIME_BITS: u32 = 60;

    /// Default error standard deviation (the HE-standard value).
    pub const DEFAULT_ERROR_STDDEV: f64 = 3.2;

    /// Builds HEAAN-style parameters with `Q = 2^log_q` and a special
    /// modulus sized for key switching.
    pub fn ckks(degree: usize, log_q: u32) -> Self {
        EncryptionParams {
            degree,
            modulus: ModulusSpec::PowerOfTwo { log_q, log_special: log_q },
            security: SecurityLevel::Bits128,
            error_stddev: Self::DEFAULT_ERROR_STDDEV,
        }
    }

    /// Builds SEAL-style parameters with a chain of `chain_len` primes of
    /// `prime_bits` bits each plus one 60-bit special prime.
    ///
    /// The first (base) prime anchors the output precision; the rest are the
    /// rescaling budget.
    pub fn rns_ckks(degree: usize, prime_bits: u32, chain_len: usize) -> Self {
        // Generate chain primes and the special prime from disjoint windows
        // when sizes collide, by asking for one extra and splitting.
        let special_bits = Self::DEFAULT_SPECIAL_PRIME_BITS;
        let (primes, special) = if special_bits == prime_bits {
            let mut all = ntt_primes(prime_bits, degree, chain_len + 1);
            let special = all.remove(0);
            (all, special)
        } else {
            (
                ntt_primes(prime_bits, degree, chain_len),
                ntt_primes(special_bits, degree, 1)[0],
            )
        };
        EncryptionParams {
            degree,
            modulus: ModulusSpec::PrimeChain { primes, special },
            security: SecurityLevel::Bits128,
            error_stddev: Self::DEFAULT_ERROR_STDDEV,
        }
    }

    /// Overrides the security level (builder style).
    pub fn with_security(mut self, level: SecurityLevel) -> Self {
        self.security = level;
        self
    }

    /// The scheme variant these parameters describe.
    pub fn kind(&self) -> SchemeKind {
        self.modulus.kind()
    }

    /// SIMD slot count (`N/2`).
    pub fn slots(&self) -> usize {
        self.degree / 2
    }

    /// Checks structural validity and the security table.
    ///
    /// # Errors
    ///
    /// Returns an error when the degree is not a supported power of two,
    /// the modulus is empty, or the total modulus exceeds the security
    /// table's budget for the chosen level.
    pub fn validate(&self) -> Result<(), ParamsError> {
        if !self.degree.is_power_of_two() || !(1024..=32768).contains(&self.degree) {
            return Err(ParamsError::BadDegree { got: self.degree, min: 1024, max: 32768 });
        }
        if self.modulus.log_q() < 1.0 {
            return Err(ParamsError::EmptyModulus { got_log_q: self.modulus.log_q() });
        }
        if self.security != SecurityLevel::Insecure {
            let budget = max_log_q(self.degree, self.security);
            let total = self.modulus.total_log_q();
            if total > budget as f64 {
                return Err(ParamsError::OverBudget {
                    got_bits: total,
                    limit_bits: budget,
                    degree: self.degree,
                    security: self.security,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ckks_params_roundtrip_kind() {
        let p = EncryptionParams::ckks(8192, 109);
        assert_eq!(p.kind(), SchemeKind::Ckks);
        assert_eq!(p.slots(), 4096);
        assert_eq!(p.modulus.log_q(), 109.0);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn rns_params_generate_distinct_primes() {
        let p = EncryptionParams::rns_ckks(8192, 40, 2);
        match &p.modulus {
            ModulusSpec::PrimeChain { primes, special } => {
                assert_eq!(primes.len(), 2);
                assert!(!primes.contains(special));
                assert!(primes[0] != primes[1]);
            }
            _ => panic!("expected prime chain"),
        }
        assert!(p.validate().is_ok());
    }

    #[test]
    fn oversized_modulus_fails_validation() {
        let p = EncryptionParams::ckks(1024, 200);
        assert!(p.validate().is_err());
        let p = p.with_security(SecurityLevel::Insecure);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn chain_len_matches_variant() {
        assert_eq!(EncryptionParams::ckks(2048, 40).modulus.chain_len(), 1);
        assert_eq!(EncryptionParams::rns_ckks(2048, 30, 3).modulus.chain_len(), 3);
    }

    #[test]
    fn total_log_q_includes_special() {
        let p = EncryptionParams::rns_ckks(4096, 40, 1);
        let m = &p.modulus;
        assert!(m.total_log_q() > m.log_q() + 58.0);
    }

    #[test]
    fn bad_degree_rejected() {
        assert!(EncryptionParams::ckks(3000, 40).validate().is_err());
        assert!(EncryptionParams::ckks(512, 20).validate().is_err());
    }

    #[test]
    fn bad_degree_error_carries_got_and_limits() {
        let err = EncryptionParams::ckks(3000, 40).validate().unwrap_err();
        assert_eq!(err, ParamsError::BadDegree { got: 3000, min: 1024, max: 32768 });
        let msg = err.to_string();
        assert!(msg.contains("3000") && msg.contains("1024") && msg.contains("32768"), "{msg}");
    }

    #[test]
    fn empty_modulus_error_carries_bits() {
        let p = EncryptionParams::ckks(1024, 0);
        match p.validate().unwrap_err() {
            ParamsError::EmptyModulus { got_log_q } => assert_eq!(got_log_q, 0.0),
            other => panic!("expected EmptyModulus, got {other:?}"),
        }
    }

    #[test]
    fn over_budget_error_carries_got_and_limit() {
        let p = EncryptionParams::ckks(1024, 200);
        match p.validate().unwrap_err() {
            ParamsError::OverBudget { got_bits, limit_bits, degree, security } => {
                assert_eq!(got_bits, 400.0); // log_q + log_special
                assert!(limit_bits < 400);
                assert_eq!(degree, 1024);
                assert_eq!(security, SecurityLevel::Bits128);
                let msg = p.validate().unwrap_err().to_string();
                assert!(msg.contains("400") && msg.contains(&limit_bits.to_string()), "{msg}");
            }
            other => panic!("expected OverBudget, got {other:?}"),
        }
    }
}
