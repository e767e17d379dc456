//! SEAL v3.1-style RNS-CKKS backend.

pub mod context;
pub mod poly;
pub mod pool;
pub mod scheme;
pub mod wire;

pub use context::RnsContext;
pub use poly::RnsPoly;
pub use scheme::{RnsCiphertext, RnsCkks, RnsPlaintext};
