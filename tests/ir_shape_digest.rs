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
//!
//! A second, whole-node digest covers every field of every node and the
//! graph fields the analyses read, bit for bit, under both schemes: the
//! render text rounds scales to 0.1 in log2 and leaves out the `log_q`
//! that `ir::cost` prices. Its constants were recorded while a dedicated
//! recording interpretation still extracted the IR, before extraction moved
//! onto the verifier's walker.

use chet::compiler::ir::{extract_ir, ExtractMode, IrGraph, IrOp};
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
            .compile(&net.circuit, &ScaleConfig::REFERENCE)
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

/// FNV-1a over every [`IrNode`](chet::compiler::ir::IrNode) field (opcode,
/// operand and plaintext ids, immediate bits, result scale, operand level,
/// span) and over the graph's inputs, outputs, keyed steps, total modulus,
/// encode sequence and plaintext pool metadata.
fn whole_node_digest(ir: &IrGraph) -> u64 {
    let mut bytes = Vec::new();
    let mut put = |w: u64| bytes.extend_from_slice(&w.to_le_bytes());
    put(ir.nodes.len() as u64);
    for node in &ir.nodes {
        for b in node.op.mnemonic().bytes() {
            put(b as u64);
        }
        match node.op {
            IrOp::Input { ct } => put(ct as u64),
            IrOp::Add { a, b } | IrOp::Sub { a, b } | IrOp::Mul { a, b } => {
                put(a as u64);
                put(b as u64);
            }
            IrOp::AddPlain { a, pt } | IrOp::SubPlain { a, pt } | IrOp::MulPlain { a, pt } => {
                put(a as u64);
                put(pt as u64);
            }
            IrOp::AddScalar { a, x } => {
                put(a as u64);
                put(x.to_bits());
            }
            IrOp::MulScalar { a, x, scale } => {
                put(a as u64);
                put(x.to_bits());
                put(scale.to_bits());
            }
            IrOp::RotLeft { a, step } => {
                put(a as u64);
                put(step as u64);
            }
            IrOp::Rescale { a, divisor } => {
                put(a as u64);
                put(divisor.to_bits());
            }
        }
        put(node.scale.to_bits());
        put(node.level.log_q.to_bits());
        put(node.level.rns_len as u64);
        match &node.span {
            Some(span) => {
                put(span.op_index as u64);
                for b in span.kernel.bytes() {
                    put(b as u64);
                }
            }
            None => put(u64::MAX),
        }
    }
    for list in [&ir.inputs, &ir.outputs] {
        put(list.len() as u64);
        list.iter().for_each(|&id| put(id as u64));
    }
    put(ir.keyed_steps.len() as u64);
    ir.keyed_steps.iter().for_each(|&s| put(s as u64));
    put(ir.log_q.to_bits());
    put(ir.encodes.len() as u64);
    ir.encodes.iter().for_each(|e| put(e.pt as u64));
    put(ir.plains.len() as u64);
    for p in &ir.plains {
        put(p.len as u64);
        put(p.scale.to_bits());
        put(p.hash);
    }
    fnv1a64(&bytes)
}

#[test]
fn ir_nodes_are_bit_identical_to_the_pinned_digests_under_both_schemes() {
    const PINNED: [(&str, SchemeKind, u64); 10] = [
        ("LeNet-5-small", SchemeKind::RnsCkks, 0x30D4_5893_EA6C_B6D1),
        ("LeNet-5-medium", SchemeKind::RnsCkks, 0xC9C1_11BF_7E55_41F0),
        ("LeNet-5-large", SchemeKind::RnsCkks, 0x482C_BFE5_5AD5_05F6),
        ("Industrial", SchemeKind::RnsCkks, 0x418E_E2B8_09A6_E9F8),
        ("SqueezeNet-CIFAR", SchemeKind::RnsCkks, 0xEB4D_6D86_43EF_1927),
        ("LeNet-5-small", SchemeKind::Ckks, 0x55B1_3F82_E9DB_01B5),
        ("LeNet-5-medium", SchemeKind::Ckks, 0xB90C_1995_13D4_F08E),
        ("LeNet-5-large", SchemeKind::Ckks, 0x36F3_A1BB_09C3_01D1),
        ("Industrial", SchemeKind::Ckks, 0x0C9C_5809_973E_FCE3),
        ("SqueezeNet-CIFAR", SchemeKind::Ckks, 0x68B7_EDE5_649F_C1CC),
    ];
    let _guard = config_lock();
    let mut drift = Vec::new();
    for (name, scheme, want) in PINNED {
        let net = chet::networks::try_reduced(name).expect("known network");
        let compiled = Compiler::new(scheme)
            .with_output_precision(2f64.powi(25))
            .compile(&net.circuit, &ScaleConfig::REFERENCE)
            .unwrap_or_else(|e| panic!("{name} {scheme:?}: {e}"));
        for threads in [1usize, 4] {
            set_threads(threads);
            for mode in [ExtractMode::Full, ExtractMode::Metadata] {
                let ir = extract_ir(&net.circuit, &compiled, mode)
                    .unwrap_or_else(|e| panic!("{name} {scheme:?}: extraction failed: {e}"));
                let got = whole_node_digest(&ir);
                if got != want {
                    drift.push(format!(
                        "{name} {scheme:?} ({mode:?}, {threads} threads): 0x{got:016X} \
                         (pinned 0x{want:016X})"
                    ));
                }
            }
        }
    }
    assert!(drift.is_empty(), "IR nodes drifted:\n{}", drift.join("\n"));
}
