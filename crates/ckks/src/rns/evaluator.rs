//! The server-side role split of the paper's Figure 3.
//!
//! In deployment the *client* holds the private key (encrypt + decrypt)
//! while the *server* holds only public material: the encryption key, the
//! relinearization key and the selected rotation keys. [`RnsEvaluator`] is
//! a [`Hisa`] backend containing exactly the server's material — calling
//! [`Hisa::decrypt`] on it panics, by construction, because the secret key
//! is simply not there.

use super::scheme::RnsCkks;
use chet_hisa::{Hisa, HisaError, Instr, RotDir};

/// Server-side evaluator: public keys only.
///
/// Obtained from [`RnsCkks::evaluator`]. Supports every HISA instruction
/// except decryption.
#[derive(Debug)]
pub struct RnsEvaluator {
    inner: RnsCkks,
}

impl RnsCkks {
    /// Extracts the public, server-side evaluator: the secret key material
    /// is replaced by a freshly drawn unrelated secret, so the evaluator
    /// can encrypt (public-key encryption) and evaluate but can never
    /// decrypt the client's ciphertexts.
    pub fn evaluator(&self) -> RnsEvaluator {
        RnsEvaluator { inner: self.clone_public_material() }
    }
}

impl Hisa for RnsEvaluator {
    type Ct = <RnsCkks as Hisa>::Ct;
    type Pt = <RnsCkks as Hisa>::Pt;

    fn slots(&self) -> usize {
        self.inner.slots()
    }

    fn try_encode(&mut self, values: &[f64], scale: f64) -> Result<Self::Pt, HisaError> {
        self.inner.try_encode(values, scale)
    }

    fn decode(&mut self, p: &Self::Pt) -> Vec<f64> {
        self.inner.decode(p)
    }

    fn encrypt(&mut self, p: &Self::Pt) -> Self::Ct {
        self.inner.encrypt(p)
    }

    /// # Panics
    ///
    /// Always panics: the evaluator holds no secret key (this is the
    /// security property of the Figure 3 deployment).
    fn decrypt(&mut self, _c: &Self::Ct) -> Self::Pt {
        panic!("RnsEvaluator holds no secret key; decryption happens client-side");
    }

    fn try_exec(&mut self, instr: Instr<'_, Self::Ct, Self::Pt>) -> Result<Self::Ct, HisaError> {
        self.inner.try_exec(instr)
    }

    fn try_rotate(
        &mut self,
        c: &Self::Ct,
        dir: RotDir,
        steps: &[usize],
    ) -> Result<Vec<Self::Ct>, HisaError> {
        self.inner.try_rotate(c, dir, steps)
    }

    fn max_rescale(&mut self, c: &Self::Ct, ub: f64) -> f64 {
        self.inner.max_rescale(c, ub)
    }

    fn scale_of(&self, c: &Self::Ct) -> f64 {
        self.inner.scale_of(c)
    }

    fn available_rotations(&self) -> Option<std::collections::BTreeSet<usize>> {
        self.inner.available_rotations()
    }

    fn fork(&mut self) -> Option<Self> {
        self.inner.fork().map(|inner| RnsEvaluator { inner })
    }

    fn join(&mut self, child: Self) {
        self.inner.join(child.inner);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chet_hisa::{EncryptionParams, RotationKeyPolicy, SecurityLevel};

    fn client() -> RnsCkks {
        let params = EncryptionParams::rns_ckks(2048, 40, 3)
            .with_security(SecurityLevel::Insecure);
        RnsCkks::new(&params, &RotationKeyPolicy::PowersOfTwo, 5)
    }

    const S: f64 = (1u64 << 28) as f64;

    #[test]
    fn server_evaluates_client_decrypts() {
        let mut client = client();
        let mut server = client.evaluator();
        // Client encrypts.
        let pt = client.encode(&[3.0, -1.5], S);
        let ct = client.encrypt(&pt);
        // Server computes (2x)² − 1 without the secret key.
        let doubled = server.mul_scalar(&ct, 2.0, S);
        let d = server.max_rescale(&doubled, S * 2.0);
        let doubled = server.rescale(&doubled, d);
        let squared = server.mul(&doubled, &doubled);
        let result = server.sub_scalar(&squared, 1.0);
        // Client decrypts.
        let out_pt = client.decrypt(&result);
        let out = client.decode(&out_pt);
        assert!((out[0] - 35.0).abs() < 0.05, "got {}", out[0]);
        assert!((out[1] - 8.0).abs() < 0.05, "got {}", out[1]);
    }

    #[test]
    #[should_panic(expected = "no secret key")]
    fn server_cannot_decrypt() {
        let mut client = client();
        let mut server = client.evaluator();
        let pt = client.encode(&[1.0], S);
        let ct = client.encrypt(&pt);
        let _ = server.decrypt(&ct);
    }

    #[test]
    fn server_rotations_use_client_keys() {
        let mut client = client();
        let mut server = client.evaluator();
        let vals: Vec<f64> = (0..8).map(|i| i as f64).collect();
        let pt = client.encode(&vals, S);
        let ct = client.encrypt(&pt);
        let rotated = server.rot_left(&ct, 3);
        let out_pt = client.decrypt(&rotated);
        let out = client.decode(&out_pt);
        assert!((out[0] - 3.0).abs() < 0.02);
    }
}
