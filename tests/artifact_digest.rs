//! Compiled-artifact bit-identity: the FNV-1a digest of `encode_compiled`
//! is pinned for every reduced network under both scheme variants and for
//! full LeNet-5-small under RNS-CKKS.
//!
//! The encoding covers everything the compiler decides — encryption
//! parameters, layout plan and policy, rotation keys, the estimated cost,
//! and the analysis facts (rotations, modulus consumption, output scale,
//! op counts) — so a refactor of parameter selection or layout pricing
//! that moves a single bit of any of them fails here.
//!
//! Parameter selection and layout pricing walk the circuit on a walker that
//! forks at every kernel fan-out, so the digests are checked at 1 and at 4
//! threads: the joined ledger and rotation set must come out in program
//! order either way.

use chet::compiler::{encode_compiled, Compiler};
use chet::hisa::params::SchemeKind;
use chet::hisa::serial::fnv1a64;
use chet::math::par::test_support::config_lock;
use chet::runtime::kernels::ScaleConfig;
use chet::runtime::par::set_threads;
use chet::Circuit;

fn digest(circuit: &Circuit, kind: SchemeKind) -> u64 {
    let compiled = Compiler::new(kind)
        .with_output_precision(2f64.powi(25))
        .compile(circuit, &ScaleConfig::REFERENCE)
        .unwrap_or_else(|e| panic!("{kind}: {e}"));
    fnv1a64(&encode_compiled(&compiled))
}

#[test]
fn compiled_artifacts_are_bit_identical_to_the_pinned_digests() {
    const PINNED: [(&str, SchemeKind, u64); 10] = [
        ("LeNet-5-small", SchemeKind::RnsCkks, 0x660F_7062_189A_8AA7),
        ("LeNet-5-small", SchemeKind::Ckks, 0x5003_7F0A_B099_56F1),
        ("LeNet-5-medium", SchemeKind::RnsCkks, 0x1B6E_5C5C_5D1D_1DD9),
        ("LeNet-5-medium", SchemeKind::Ckks, 0x43F7_A240_2934_3DE5),
        ("LeNet-5-large", SchemeKind::RnsCkks, 0x6B0A_9300_7A5E_A0A0),
        ("LeNet-5-large", SchemeKind::Ckks, 0xBEB9_1BEF_2144_05A9),
        ("Industrial", SchemeKind::RnsCkks, 0x4C21_3041_CE60_B703),
        ("Industrial", SchemeKind::Ckks, 0x00D7_6184_A42D_E229),
        ("SqueezeNet-CIFAR", SchemeKind::RnsCkks, 0x06A0_5E01_3689_6BD4),
        ("SqueezeNet-CIFAR", SchemeKind::Ckks, 0x3E84_040C_0810_28E3),
    ];
    const FULL_LENET_SMALL_RNS: u64 = 0x1B08_E962_EFC3_AC33;
    let _guard = config_lock();
    let mut drift = Vec::new();
    for threads in [1usize, 4] {
        set_threads(threads);
        for (name, kind, want) in PINNED {
            let net = chet::networks::try_reduced(name).expect("known network");
            let got = digest(&net.circuit, kind);
            if got != want {
                drift.push(format!(
                    "{name}/{kind} ({threads} threads): 0x{got:016X} (pinned 0x{want:016X})"
                ));
            }
        }
        let full = digest(&chet::networks::lenet5_small().circuit, SchemeKind::RnsCkks);
        if full != FULL_LENET_SMALL_RNS {
            drift.push(format!(
                "full LeNet-5-small/RNS-CKKS ({threads} threads): 0x{full:016X} \
                 (pinned 0x{FULL_LENET_SMALL_RNS:016X})"
            ));
        }
    }
    assert!(drift.is_empty(), "compiled artifacts drifted:\n{}", drift.join("\n"));
}
