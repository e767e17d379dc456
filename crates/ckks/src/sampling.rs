//! Randomness for RLWE: ternary secrets, discrete Gaussian errors, uniform
//! ring elements.
//!
//! All sampling is driven by a caller-provided RNG so that tests and the
//! reproduction harness stay deterministic under a fixed seed.

use rand::Rng;

/// Samples a ternary polynomial with coefficients in `{-1, 0, 1}`, the
/// secret-key distribution of SEAL and HEAAN.
pub fn ternary<R: Rng>(rng: &mut R, n: usize) -> Vec<i64> {
    (0..n).map(|_| rng.gen_range(-1i64..=1)).collect()
}

/// Samples a rounded Gaussian with standard deviation `stddev`, truncated at
/// six sigmas (the HE-standard error distribution).
pub fn gaussian<R: Rng>(rng: &mut R, n: usize, stddev: f64) -> Vec<i64> {
    let bound = (6.0 * stddev).ceil();
    (0..n)
        .map(|_| loop {
            let (u1, u2) = box_muller_draws(rng);
            if let Some(v) = rounded_box_muller(u1, u2, stddev, bound) {
                return v;
            }
        })
        .collect()
}

/// Advances `rng` exactly as [`gaussian`] would for `n` samples, without
/// computing them. `|g| <= sqrt(-2 ln u1)` for a Box–Muller sample `g`, so
/// an attempt can be rejected only when `u1 < exp(-(bound/stddev)^2 / 2)`
/// (about 3e-9 at the usual `stddev = 3.2`); only those attempts run the
/// full transform, to learn whether [`gaussian`] drew again.
pub fn skip_gaussian<R: Rng>(rng: &mut R, n: usize, stddev: f64) {
    let bound = (6.0 * stddev).ceil();
    let may_reject = (-(bound / stddev).powi(2) / 2.0).exp();
    for _ in 0..n {
        loop {
            let (u1, u2) = box_muller_draws(rng);
            if u1 >= may_reject || rounded_box_muller(u1, u2, stddev, bound).is_some() {
                break;
            }
        }
    }
}

/// The two uniform draws of one Box–Muller attempt.
fn box_muller_draws<R: Rng>(rng: &mut R) -> (f64, f64) {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen::<f64>();
    (u1, u2)
}

/// One Box–Muller attempt, rounded: `None` when it falls outside `bound`.
fn rounded_box_muller(u1: f64, u2: f64, stddev: f64, bound: f64) -> Option<i64> {
    let g = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    let v = (g * stddev).round();
    (v.abs() <= bound).then_some(v as i64)
}

/// Samples a continuous Gaussian `N(0, stddev^2)` as `f64` (no rounding),
/// used by the simulator's noise model where magnitudes can be far below 1.
pub fn gaussian_f64<R: Rng>(rng: &mut R, n: usize, stddev: f64) -> Vec<f64> {
    (0..n)
        .map(|_| {
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen::<f64>();
            (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos() * stddev
        })
        .collect()
}

/// Samples a uniform element of `Z_q` per coefficient.
pub fn uniform_mod<R: Rng>(rng: &mut R, n: usize, q: u64) -> Vec<u64> {
    (0..n).map(|_| rng.gen_range(0..q)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ternary_values_in_range() {
        let mut rng = StdRng::seed_from_u64(1);
        let s = ternary(&mut rng, 4096);
        assert!(s.iter().all(|&x| (-1..=1).contains(&x)));
        // All three values should occur in a big enough sample.
        for v in [-1i64, 0, 1] {
            assert!(s.contains(&v));
        }
    }

    #[test]
    fn gaussian_statistics_plausible() {
        let mut rng = StdRng::seed_from_u64(2);
        let stddev = 3.2;
        let e = gaussian(&mut rng, 100_000, stddev);
        let mean: f64 = e.iter().map(|&x| x as f64).sum::<f64>() / e.len() as f64;
        let var: f64 = e.iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / e.len() as f64;
        assert!(mean.abs() < 0.1, "mean {mean} too far from 0");
        assert!((var.sqrt() - stddev).abs() < 0.2, "stddev {} vs {stddev}", var.sqrt());
        let bound = (6.0 * stddev).ceil() as i64;
        assert!(e.iter().all(|&x| x.abs() <= bound));
    }

    #[test]
    fn skip_gaussian_leaves_the_rng_where_gaussian_does() {
        use rand::RngCore;
        let mut a = StdRng::seed_from_u64(11);
        let mut b = StdRng::seed_from_u64(11);
        gaussian(&mut a, 20_000, 3.2);
        skip_gaussian(&mut b, 20_000, 3.2);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn only_tiny_u1_can_reject() {
        let (stddev, bound) = (3.2, 20.0);
        // The smallest `u1` the sampler draws can be rejected…
        assert_eq!(rounded_box_muller(f64::EPSILON, 0.0, stddev, bound), None);
        // …but none at or above the threshold the skip tests, whatever `u2`.
        let may_reject = (-(bound / stddev).powi(2) / 2.0).exp();
        assert!(may_reject > 3e-9 && may_reject < 4e-9, "{may_reject}");
        for i in 0..=1000 {
            let u2 = i as f64 / 1000.0;
            assert!(rounded_box_muller(may_reject, u2, stddev, bound).is_some(), "u2 {u2}");
        }
    }

    #[test]
    fn uniform_within_modulus() {
        let mut rng = StdRng::seed_from_u64(3);
        let q = 1_000_003u64;
        let u = uniform_mod(&mut rng, 10_000, q);
        assert!(u.iter().all(|&x| x < q));
        let mean: f64 = u.iter().map(|&x| x as f64).sum::<f64>() / u.len() as f64;
        assert!((mean / (q as f64 / 2.0) - 1.0).abs() < 0.05);
    }

    #[test]
    fn seeded_sampling_is_deterministic() {
        let a = ternary(&mut StdRng::seed_from_u64(7), 64);
        let b = ternary(&mut StdRng::seed_from_u64(7), 64);
        assert_eq!(a, b);
    }
}
