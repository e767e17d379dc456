//! IR shape bit-identity: the extracted HISA graph of every reduced
//! network under RNS-CKKS is pinned by an FNV-1a digest.
//!
//! The digest covers the `chet-lint --ir-dump` text of the graph (every
//! node's opcode, operands, plaintext ids, span, scale and level), the
//! plaintext id of every server-side encode call in program order, and the
//! size of the deduplicated plaintext pool. Plaintext interning therefore
//! cannot merge, split or renumber a single plaintext without failing here.
//! The digest must not depend on the extraction mode (values kept or
//! dropped) nor on the kernel thread count. The constants were recorded
//! before plaintext interning moved from a byte-wise FNV-1a to the word
//! hash.

use chet::compiler::ir::{extract_ir, ExtractMode, IrGraph};
use chet::compiler::Compiler;
use chet::hisa::params::SchemeKind;
use chet::hisa::serial::fnv1a64;
use chet::math::par::test_support::config_lock;
use chet::runtime::kernels::ScaleConfig;
use chet::runtime::par::set_threads;

fn shape_digest(ir: &IrGraph) -> u64 {
    let mut bytes = ir.render_text().into_bytes();
    for e in &ir.encodes {
        bytes.extend_from_slice(&(e.pt as u64).to_le_bytes());
    }
    bytes.extend_from_slice(&(ir.plains.len() as u64).to_le_bytes());
    fnv1a64(&bytes)
}

#[test]
fn ir_shape_is_bit_identical_to_the_pinned_digests() {
    const PINNED: [(&str, u64); 5] = [
        ("LeNet-5-small", 0xB16C_74BE_3A48_62F5),
        ("LeNet-5-medium", 0x967F_BDD4_1B86_326E),
        ("LeNet-5-large", 0xC7B0_0D7F_B735_1371),
        ("Industrial", 0x1154_50DB_BD0B_CCDC),
        ("SqueezeNet-CIFAR", 0x776C_2685_6AD8_0BA4),
    ];
    let _guard = config_lock();
    let mut drift = Vec::new();
    for (name, want) in PINNED {
        let net = chet::networks::try_reduced(name).expect("known network");
        let compiled = Compiler::new(SchemeKind::RnsCkks)
            .with_output_precision(2f64.powi(25))
            .compile(&net.circuit, &ScaleConfig::from_log2(25, 12, 12, 10))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        for threads in [1usize, 4] {
            set_threads(threads);
            for mode in [ExtractMode::Full, ExtractMode::Metadata] {
                let ir = extract_ir(&net.circuit, &compiled, mode)
                    .unwrap_or_else(|e| panic!("{name}: extraction failed: {e}"));
                let got = shape_digest(&ir);
                if got != want {
                    drift.push(format!(
                        "{name} ({mode:?}, {threads} threads): 0x{got:016X} (pinned 0x{want:016X})"
                    ));
                }
            }
        }
    }
    assert!(drift.is_empty(), "IR shape drifted:\n{}", drift.join("\n"));
}
