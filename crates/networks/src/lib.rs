//! # chet-networks
//!
//! The evaluation networks of the CHET paper (Table 3), built as tensor
//! circuits with seeded synthetic weights:
//!
//! | Network | Conv | FC | Act | Notes |
//! |---|---|---|---|---|
//! | LeNet-5-small | 2 | 2 | 4 | MNIST-sized (28×28×1) |
//! | LeNet-5-medium | 2 | 2 | 4 | more feature maps |
//! | LeNet-5-large | 2 | 2 | 4 | TensorFlow-tutorial sized |
//! | Industrial | 5 | 2 | 6 | synthetic stand-in (structure disclosed only) |
//! | SqueezeNet-CIFAR | 10 | 0 | 9 | 3 Fire modules on 32×32×3 |
//!
//! All networks are HE-compatible as in the paper §6: activations are the
//! learnable polynomial `f(x) = a·x² + b·x` and pooling is average pooling.
//! Weights are seeded pseudo-random with variance-preserving bounds — the
//! datasets and trained weights of the paper are substituted per DESIGN.md;
//! what these circuits certify is that *encrypted inference matches
//! unencrypted inference*, which is the property the compiler owns.
//!
//! [`try_reduced`] variants shrink spatial dimensions for quick CI runs of
//! the benchmark harness; an unknown name is an [`UnknownNetworkError`]
//! value, not a panic.

use chet_tensor::circuit::{Circuit, CircuitBuilder, NodeId};
use chet_tensor::flops::count_flops;
use chet_tensor::ops::Padding;
use chet_tensor::Tensor;

/// A named evaluation network.
#[derive(Debug, Clone)]
pub struct Network {
    /// Display name (matches the paper's Table 3).
    pub name: &'static str,
    /// The tensor circuit (weights embedded).
    pub circuit: Circuit,
    /// CHW input shape.
    pub input_shape: Vec<usize>,
    /// Whether full-size runs are expensive (drives harness defaults).
    pub heavy: bool,
}

impl Network {
    /// Number of floating-point operations of the reference evaluation.
    pub fn flops(&self) -> u64 {
        count_flops(&self.circuit).total()
    }

    /// A deterministic synthetic input image in `[-1, 1]`.
    pub fn sample_image(&self, seed: u64) -> Tensor {
        Tensor::random(self.input_shape.clone(), 1.0, seed)
    }
}

/// Variance-preserving random weights for a KCRS filter bank.
fn conv_weights(k: usize, c: usize, r: usize, s: usize, seed: u64) -> Tensor {
    let bound = (2.0 / (c * r * s) as f64).sqrt();
    Tensor::random(vec![k, c, r, s], bound, seed)
}

/// Variance-preserving random weights for a dense layer.
fn fc_weights(out: usize, inp: usize, seed: u64) -> Tensor {
    let bound = (2.0 / inp as f64).sqrt();
    Tensor::random(vec![out, inp], bound, seed)
}

fn small_bias(n: usize, seed: u64) -> Vec<f64> {
    Tensor::random(vec![n], 0.05, seed).data().to_vec()
}

/// The paper's learnable activation with typical post-training values.
const ACT_A: f64 = 0.15;
const ACT_B: f64 = 0.85;

/// A LeNet-5-style network: two convolutions (each with activation and
/// average pooling) and two dense layers, activations after each dense
/// layer (4 activations total, as in Table 3).
fn lenet(
    name: &'static str,
    input_hw: usize,
    conv1_maps: usize,
    conv2_maps: usize,
    conv2_padding: Padding,
    fc1: usize,
    heavy: bool,
    seed: u64,
) -> Network {
    let mut b = CircuitBuilder::new();
    let x = b.input(vec![1, input_hw, input_hw]);
    let c1 = b.conv2d(
        x,
        conv_weights(conv1_maps, 1, 5, 5, seed),
        Some(small_bias(conv1_maps, seed + 1)),
        1,
        Padding::Valid,
    );
    let a1 = b.activation(c1, ACT_A, ACT_B);
    let p1 = b.avg_pool2d(a1, 2, 2);
    let c2 = b.conv2d(
        p1,
        conv_weights(conv2_maps, conv1_maps, 5, 5, seed + 2),
        Some(small_bias(conv2_maps, seed + 3)),
        1,
        conv2_padding,
    );
    let a2 = b.activation(c2, ACT_A, ACT_B);
    let p2 = b.avg_pool2d(a2, 2, 2);
    let f = b.flatten(p2);
    // Dense sizes derive from the circuit's own shape inference.
    let tmp = CircuitBuilder::new();
    drop(tmp);
    let mut probe = b.build(f);
    let flat = probe.shapes()[f][0];
    // Rebuild with the dense layers appended (builder is consumed by build).
    b = CircuitBuilder::new();
    let mut rebuilt_f = 0;
    for (i, op) in probe.ops().iter().enumerate() {
        b = rebuild_push(b, op.clone());
        if i == f {
            rebuilt_f = i;
        }
    }
    let m1 = b.matmul(rebuilt_f, fc_weights(fc1, flat, seed + 4), Some(small_bias(fc1, seed + 5)));
    let a3 = b.activation(m1, ACT_A, ACT_B);
    let m2 = b.matmul(a3, fc_weights(10, fc1, seed + 6), Some(small_bias(10, seed + 7)));
    let a4 = b.activation(m2, ACT_A, ACT_B);
    probe = b.build(a4);
    Network { name, circuit: probe, input_shape: vec![1, input_hw, input_hw], heavy }
}

fn rebuild_push(mut b: CircuitBuilder, op: chet_tensor::circuit::Op) -> CircuitBuilder {
    use chet_tensor::circuit::Op;
    match op {
        Op::Input { shape } => {
            b.input(shape);
        }
        Op::Conv2d { input, weights, bias, stride, padding } => {
            b.conv2d(input, weights, bias, stride, padding);
        }
        Op::MatMul { input, weights, bias } => {
            b.matmul(input, weights, bias);
        }
        Op::AvgPool2d { input, kernel, stride } => {
            b.avg_pool2d(input, kernel, stride);
        }
        Op::GlobalAvgPool { input } => {
            b.global_avg_pool(input);
        }
        Op::Activation { input, a, b: bb } => {
            b.activation(input, a, bb);
        }
        Op::BatchNorm { input, scale, shift } => {
            b.batch_norm(input, scale, shift);
        }
        Op::Concat { inputs } => {
            b.concat(inputs);
        }
        Op::Flatten { input } => {
            b.flatten(input);
        }
    }
    b
}

/// LeNet-5-small (paper: 159,960 FP ops).
pub fn lenet5_small() -> Network {
    lenet("LeNet-5-small", 28, 4, 4, Padding::Valid, 32, false, 1000)
}

/// LeNet-5-medium (paper: 5,791,168 FP ops).
pub fn lenet5_medium() -> Network {
    lenet("LeNet-5-medium", 28, 16, 28, Padding::Same, 128, false, 2000)
}

/// LeNet-5-large (paper: 21,385,674 FP ops; matches the TensorFlow
/// tutorial's feature-map counts).
pub fn lenet5_large() -> Network {
    lenet("LeNet-5-large", 28, 32, 64, Padding::Same, 512, true, 3000)
}

/// The confidential "Industrial" network, reconstructed from its disclosed
/// structure (5 conv + 2 FC + 6 activations) on a 64×64 medical-style
/// image (see DESIGN.md substitutions).
pub fn industrial() -> Network {
    let seed = 4000;
    let mut b = CircuitBuilder::new();
    let x = b.input(vec![1, 64, 64]);
    let c1 = b.conv2d(x, conv_weights(8, 1, 3, 3, seed), Some(small_bias(8, seed + 1)), 2, Padding::Same);
    let a1 = b.activation(c1, ACT_A, ACT_B);
    let c2 = b.conv2d(a1, conv_weights(16, 8, 3, 3, seed + 2), Some(small_bias(16, seed + 3)), 2, Padding::Same);
    let a2 = b.activation(c2, ACT_A, ACT_B);
    let c3 = b.conv2d(a2, conv_weights(16, 16, 3, 3, seed + 4), Some(small_bias(16, seed + 5)), 1, Padding::Same);
    let a3 = b.activation(c3, ACT_A, ACT_B);
    let c4 = b.conv2d(a3, conv_weights(32, 16, 3, 3, seed + 6), Some(small_bias(32, seed + 7)), 2, Padding::Same);
    let a4 = b.activation(c4, ACT_A, ACT_B);
    let c5 = b.conv2d(a4, conv_weights(32, 32, 3, 3, seed + 8), Some(small_bias(32, seed + 9)), 1, Padding::Same);
    let a5 = b.activation(c5, ACT_A, ACT_B);
    let f = b.flatten(a5);
    let m1 = b.matmul(f, fc_weights(64, 32 * 8 * 8, seed + 10), Some(small_bias(64, seed + 11)));
    let a6 = b.activation(m1, ACT_A, ACT_B);
    let m2 = b.matmul(a6, fc_weights(2, 64, seed + 12), Some(small_bias(2, seed + 13)));
    let circuit = b.build(m2);
    Network { name: "Industrial", circuit, input_shape: vec![1, 64, 64], heavy: true }
}

/// One Fire module: squeeze 1×1 conv (+act), expand 1×1 and 3×3 convs
/// (+acts unless `final_stage`), channel concat.
#[allow(clippy::too_many_arguments)]
fn fire(
    b: &mut CircuitBuilder,
    input: NodeId,
    in_c: usize,
    squeeze: usize,
    expand: usize,
    final_stage: bool,
    seed: u64,
) -> NodeId {
    let s = b.conv2d(
        *&input,
        conv_weights(squeeze, in_c, 1, 1, seed),
        Some(small_bias(squeeze, seed + 1)),
        1,
        Padding::Valid,
    );
    let sa = b.activation(s, ACT_A, ACT_B);
    let e1 = b.conv2d(
        sa,
        conv_weights(expand, squeeze, 1, 1, seed + 2),
        Some(small_bias(expand, seed + 3)),
        1,
        Padding::Valid,
    );
    let e3 = b.conv2d(
        sa,
        conv_weights(expand, squeeze, 3, 3, seed + 4),
        Some(small_bias(expand, seed + 5)),
        1,
        Padding::Same,
    );
    if final_stage {
        b.concat(vec![e1, e3])
    } else {
        let a1 = b.activation(e1, ACT_A, ACT_B);
        let a3 = b.activation(e3, ACT_A, ACT_B);
        b.concat(vec![a1, a3])
    }
}

/// SqueezeNet-CIFAR (paper: 10 conv layers, 9 activations, 4 Fire-module
/// stages compressed to 3 here so the conv count matches Table 3; see
/// DESIGN.md). Ends with a Fire module expanding to 2×5 = 10 channels and a
/// global average pool — no dense layers.
pub fn squeezenet_cifar() -> Network {
    let seed = 5000;
    let mut b = CircuitBuilder::new();
    let x = b.input(vec![3, 32, 32]);
    // conv1 + BN + act + pool (conv #1)
    let c1 = b.conv2d(x, conv_weights(64, 3, 3, 3, seed), Some(small_bias(64, seed + 1)), 1, Padding::Same);
    let bn_scale: Vec<f64> = (0..64).map(|i| 0.9 + 0.01 * (i % 10) as f64).collect();
    let bn_shift: Vec<f64> = (0..64).map(|i| -0.02 + 0.001 * (i % 5) as f64).collect();
    let n1 = b.batch_norm(c1, bn_scale, bn_shift);
    let a1 = b.activation(n1, ACT_A, ACT_B);
    let p1 = b.avg_pool2d(a1, 2, 2); // 16×16
    // Fire 1 (convs #2-4), 64 -> 192
    let f1 = fire(&mut b, p1, 64, 48, 96, false, seed + 10);
    let p2 = b.avg_pool2d(f1, 2, 2); // 8×8
    // Fire 2 (convs #5-7), 192 -> 192
    let f2 = fire(&mut b, p2, 192, 48, 96, false, seed + 20);
    let p3 = b.avg_pool2d(f2, 2, 2); // 4×4
    // Fire 3 (convs #8-10), 192 -> 10 class maps; activation on the concat
    // (9th activation), then global average pool to the logits.
    let f3 = fire(&mut b, p3, 192, 16, 5, true, seed + 30);
    let a_out = b.activation(f3, ACT_A, ACT_B);
    let g = b.global_avg_pool(a_out);
    let circuit = b.build(g);
    Network { name: "SqueezeNet-CIFAR", circuit, input_shape: vec![3, 32, 32], heavy: true }
}

/// All Table 3 networks, in the paper's order.
pub fn all_networks() -> Vec<Network> {
    vec![lenet5_small(), lenet5_medium(), lenet5_large(), industrial(), squeezenet_cifar()]
}

/// The canonical Table 3 network names accepted by [`reduced`] and
/// [`try_reduced`], in the paper's order.
pub const NETWORK_NAMES: [&str; 5] = [
    "LeNet-5-small",
    "LeNet-5-medium",
    "LeNet-5-large",
    "Industrial",
    "SqueezeNet-CIFAR",
];

/// A network name that is not one of [`NETWORK_NAMES`].
///
/// Returned by [`try_reduced`] so serving workers can reject a bad request
/// as a value instead of unwinding the worker thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownNetworkError {
    /// The name that failed to resolve.
    pub name: String,
}

impl std::fmt::Display for UnknownNetworkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown network {} (expected one of: {})", self.name, NETWORK_NAMES.join(", "))
    }
}

impl std::error::Error for UnknownNetworkError {}

/// Reduced-size stand-ins with identical structure, for quick harness runs
/// on the real lattice backends (see EXPERIMENTS.md). An unrecognized name
/// comes back as a structured [`UnknownNetworkError`] naming the valid
/// choices.
pub fn try_reduced(network: &str) -> Result<Network, UnknownNetworkError> {
    Ok(match network {
        "LeNet-5-small" => lenet("LeNet-5-small (reduced)", 16, 2, 2, Padding::Valid, 8, false, 1000),
        "LeNet-5-medium" => lenet("LeNet-5-medium (reduced)", 16, 4, 4, Padding::Same, 16, false, 2000),
        "LeNet-5-large" => lenet("LeNet-5-large (reduced)", 16, 6, 8, Padding::Same, 24, false, 3000),
        "Industrial" => {
            let seed = 4000;
            let mut b = CircuitBuilder::new();
            let x = b.input(vec![1, 16, 16]);
            let mut node = x;
            let mut in_c = 1usize;
            for (i, (maps, stride)) in [(4usize, 2usize), (4, 1), (8, 2), (8, 1), (8, 1)].iter().enumerate() {
                node = b.conv2d(
                    node,
                    conv_weights(*maps, in_c, 3, 3, seed + 2 * i as u64),
                    Some(small_bias(*maps, seed + 2 * i as u64 + 1)),
                    *stride,
                    Padding::Same,
                );
                node = b.activation(node, ACT_A, ACT_B);
                in_c = *maps;
            }
            let f = b.flatten(node);
            let m1 = b.matmul(f, fc_weights(16, 8 * 4 * 4, seed + 20), None);
            let a = b.activation(m1, ACT_A, ACT_B);
            let m2 = b.matmul(a, fc_weights(2, 16, seed + 21), None);
            let circuit = b.build(m2);
            Network { name: "Industrial (reduced)", circuit, input_shape: vec![1, 16, 16], heavy: false }
        }
        "SqueezeNet-CIFAR" => {
            let seed = 5000;
            let mut b = CircuitBuilder::new();
            let x = b.input(vec![3, 12, 12]);
            let c1 = b.conv2d(x, conv_weights(8, 3, 3, 3, seed), None, 1, Padding::Same);
            let a1 = b.activation(c1, ACT_A, ACT_B);
            let p1 = b.avg_pool2d(a1, 2, 2);
            let f1 = fire(&mut b, p1, 8, 4, 8, false, seed + 10);
            let f2 = fire(&mut b, f1, 16, 4, 5, true, seed + 20);
            let a_out = b.activation(f2, ACT_A, ACT_B);
            let g = b.global_avg_pool(a_out);
            let circuit = b.build(g);
            Network { name: "SqueezeNet-CIFAR (reduced)", circuit, input_shape: vec![3, 12, 12], heavy: false }
        }
        other => return Err(UnknownNetworkError { name: other.to_string() }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_layer_counts() {
        for (net, conv, fc, act) in [
            (lenet5_small(), 2usize, 2usize, 4usize),
            (lenet5_medium(), 2, 2, 4),
            (lenet5_large(), 2, 2, 4),
            (industrial(), 5, 2, 6),
            (squeezenet_cifar(), 10, 0, 9),
        ] {
            let counts = net.circuit.layer_counts();
            assert_eq!(counts.get("conv2d").copied().unwrap_or(0), conv, "{} conv", net.name);
            assert_eq!(counts.get("matmul").copied().unwrap_or(0), fc, "{} fc", net.name);
            assert_eq!(counts.get("activation").copied().unwrap_or(0), act, "{} act", net.name);
        }
    }

    #[test]
    fn flop_counts_in_paper_ballpark() {
        // Within 2x of Table 3 (weights are synthetic; shapes matter).
        let expected = [
            (lenet5_small(), 159_960u64),
            (lenet5_medium(), 5_791_168),
            (lenet5_large(), 21_385_674),
            (squeezenet_cifar(), 37_759_754),
        ];
        for (net, paper) in expected {
            let ours = net.flops();
            let ratio = ours as f64 / paper as f64;
            assert!(
                (0.5..=2.0).contains(&ratio),
                "{}: ours {} vs paper {} (ratio {ratio:.2})",
                net.name,
                ours,
                paper
            );
        }
    }

    #[test]
    fn all_networks_evaluate_with_bounded_outputs() {
        for net in all_networks() {
            let out = net.circuit.eval(&[net.sample_image(42)]);
            assert!(
                out.data().iter().all(|v| v.is_finite() && v.abs() < 1e4),
                "{} output unbounded",
                net.name
            );
        }
    }

    #[test]
    fn outputs_are_ten_classes_where_expected() {
        for net in [lenet5_small(), lenet5_medium(), lenet5_large(), squeezenet_cifar()] {
            let out = net.circuit.eval(&[net.sample_image(1)]);
            assert_eq!(out.numel(), 10, "{}", net.name);
        }
        let out = industrial().circuit.eval(&[industrial().sample_image(1)]);
        assert_eq!(out.numel(), 2, "industrial is binary classification");
    }

    #[test]
    fn try_reduced_rejects_unknown_names() {
        let err = try_reduced("AlexNet").unwrap_err();
        assert_eq!(err.name, "AlexNet");
        let msg = err.to_string();
        assert!(msg.contains("unknown network AlexNet"), "{msg}");
        assert!(msg.contains("LeNet-5-small"), "message lists valid names: {msg}");
        for name in NETWORK_NAMES {
            assert!(try_reduced(name).is_ok(), "{name} resolves");
        }
    }

    #[test]
    fn reduced_variants_keep_structure() {
        for name in ["LeNet-5-small", "LeNet-5-medium", "LeNet-5-large", "Industrial", "SqueezeNet-CIFAR"] {
            let full_counts = all_networks()
                .into_iter()
                .find(|n| n.name == name)
                .unwrap()
                .circuit
                .layer_counts()
                .get("conv2d")
                .copied()
                .unwrap_or(0);
            let red = try_reduced(name).unwrap();
            let red_convs = red.circuit.layer_counts().get("conv2d").copied().unwrap_or(0);
            if name == "SqueezeNet-CIFAR" {
                assert!(red_convs >= 4, "reduced squeezenet keeps fire structure");
            } else {
                assert_eq!(red_convs, full_counts, "{name}");
            }
            assert!(!red.heavy);
            let out = red.circuit.eval(&[red.sample_image(5)]);
            assert!(out.data().iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn networks_are_deterministic() {
        let a = lenet5_small().circuit.eval(&[lenet5_small().sample_image(9)]);
        let b = lenet5_small().circuit.eval(&[lenet5_small().sample_image(9)]);
        assert_eq!(a.data(), b.data());
    }

    #[test]
    fn multiplicative_depths_ordered_by_network_size() {
        let small = lenet5_small().circuit.multiplicative_depth();
        let ind = industrial().circuit.multiplicative_depth();
        let sq = squeezenet_cifar().circuit.multiplicative_depth();
        assert!(ind > small, "industrial deeper than lenet");
        assert!(sq > small, "squeezenet deeper than lenet");
    }
}
