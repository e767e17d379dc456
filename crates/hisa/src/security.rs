//! Security tables from the Homomorphic Encryption Standard.
//!
//! For a given coefficient-modulus size `log2 Q` (including any special
//! key-switching modulus) and a desired security level, the standard
//! prescribes a minimum ring degree `N` (paper §2.3: "The security level for
//! a given Q and N is a table provided by the encryption scheme which CHET
//! explicitly encodes").

/// Classical security levels from the HE standard tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SecurityLevel {
    /// 128-bit classical security (CHET's default).
    #[default]
    Bits128,
    /// 192-bit classical security.
    Bits192,
    /// 256-bit classical security.
    Bits256,
    /// No security constraint (used only to mirror the paper's HEAAN
    /// baselines, which ran with "somewhat less than 128-bit security").
    Insecure,
}

/// Supported ring degrees, smallest to largest.
pub const DEGREES: [usize; 6] = [1024, 2048, 4096, 8192, 16384, 32768];

/// `(degree, max log2 Q)` rows of the HE-standard table for ternary secrets.
const MAX_LOG_Q_128: [(usize, u32); 6] =
    [(1024, 27), (2048, 54), (4096, 109), (8192, 218), (16384, 438), (32768, 881)];
const MAX_LOG_Q_192: [(usize, u32); 6] =
    [(1024, 19), (2048, 37), (4096, 75), (8192, 152), (16384, 305), (32768, 611)];
const MAX_LOG_Q_256: [(usize, u32); 6] =
    [(1024, 14), (2048, 29), (4096, 58), (8192, 118), (16384, 237), (32768, 476)];

/// Maximum total `log2 Q` (including special modulus) admissible at ring
/// degree `degree` for `level` security. Returns `u32::MAX` for
/// [`SecurityLevel::Insecure`].
///
/// # Panics
///
/// Panics if `degree` is not one of [`DEGREES`].
pub fn max_log_q(degree: usize, level: SecurityLevel) -> u32 {
    let table = match level {
        SecurityLevel::Bits128 => &MAX_LOG_Q_128,
        SecurityLevel::Bits192 => &MAX_LOG_Q_192,
        SecurityLevel::Bits256 => &MAX_LOG_Q_256,
        SecurityLevel::Insecure => return u32::MAX,
    };
    table
        .iter()
        .find(|&&(n, _)| n == degree)
        .map(|&(_, q)| q)
        .unwrap_or_else(|| panic!("unsupported ring degree {degree}"))
}

/// Smallest supported ring degree whose modulus budget at `level` admits a
/// total modulus of `log_q_bits` bits, or `None` if even `N = 32768` cannot.
pub fn min_degree_for_modulus(log_q_bits: u32, level: SecurityLevel) -> Option<usize> {
    DEGREES.into_iter().find(|&n| max_log_q(n, level) >= log_q_bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_matches_he_standard() {
        assert_eq!(max_log_q(8192, SecurityLevel::Bits128), 218);
        assert_eq!(max_log_q(32768, SecurityLevel::Bits128), 881);
        assert_eq!(max_log_q(4096, SecurityLevel::Bits192), 75);
        assert_eq!(max_log_q(1024, SecurityLevel::Bits256), 14);
    }

    #[test]
    fn min_degree_monotone_in_modulus() {
        let mut last = 0usize;
        for bits in (20..880).step_by(37) {
            let n = min_degree_for_modulus(bits, SecurityLevel::Bits128).unwrap();
            assert!(n >= last, "degree must not shrink as modulus grows");
            last = n;
        }
    }

    #[test]
    fn too_large_modulus_has_no_degree() {
        assert_eq!(min_degree_for_modulus(882, SecurityLevel::Bits128), None);
        assert_eq!(min_degree_for_modulus(612, SecurityLevel::Bits192), None);
    }

    #[test]
    fn insecure_is_unbounded() {
        assert_eq!(max_log_q(1024, SecurityLevel::Insecure), u32::MAX);
        assert_eq!(min_degree_for_modulus(10_000, SecurityLevel::Insecure), Some(1024));
    }

    #[test]
    fn stricter_levels_allow_less_modulus() {
        for n in DEGREES {
            assert!(max_log_q(n, SecurityLevel::Bits128) > max_log_q(n, SecurityLevel::Bits192));
            assert!(max_log_q(n, SecurityLevel::Bits192) > max_log_q(n, SecurityLevel::Bits256));
        }
    }

    #[test]
    #[should_panic(expected = "unsupported ring degree")]
    fn unsupported_degree_panics() {
        max_log_q(3000, SecurityLevel::Bits128);
    }
}
