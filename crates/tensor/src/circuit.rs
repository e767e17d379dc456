//! Tensor circuits: the input language of the CHET compiler.
//!
//! A circuit is a DAG of tensor operations over a single encrypted input
//! image plus unencrypted model weights (paper §3.2). Shapes are static and
//! known at compile time, which is what lets the compiler unroll the
//! circuit on-the-fly during analysis instead of materializing a data-flow
//! graph (paper §5.1).

use crate::ops::{self, Padding};
use crate::tensor::Tensor;

/// Identifier of a node (operation result) within a circuit.
pub type NodeId = usize;

/// One tensor operation. Weights are embedded in the circuit because CHET
/// treats the model as known to the server (only the image is encrypted).
#[derive(Debug, Clone)]
pub enum Op {
    /// The encrypted input tensor (CHW).
    Input {
        /// CHW shape of the input.
        shape: Vec<usize>,
    },
    /// 2-D convolution with KCRS weights.
    Conv2d {
        /// Producer of the input tensor.
        input: NodeId,
        /// KCRS filter bank.
        weights: Tensor,
        /// Optional per-output-channel bias.
        bias: Option<Vec<f64>>,
        /// Spatial stride.
        stride: usize,
        /// Padding mode.
        padding: Padding,
    },
    /// Fully connected layer on the flattened input.
    MatMul {
        /// Producer of the input tensor.
        input: NodeId,
        /// `[out, in]` weights.
        weights: Tensor,
        /// Optional bias of length `out`.
        bias: Option<Vec<f64>>,
    },
    /// Average pooling with a square window.
    AvgPool2d {
        /// Producer of the input tensor.
        input: NodeId,
        /// Window size.
        kernel: usize,
        /// Spatial stride.
        stride: usize,
    },
    /// Global average pooling to `[C, 1, 1]`.
    GlobalAvgPool {
        /// Producer of the input tensor.
        input: NodeId,
    },
    /// Element-wise `a·x² + b·x` (HE-compatible activation).
    Activation {
        /// Producer of the input tensor.
        input: NodeId,
        /// Quadratic coefficient.
        a: f64,
        /// Linear coefficient.
        b: f64,
    },
    /// Per-channel affine transform (folded batch norm).
    BatchNorm {
        /// Producer of the input tensor.
        input: NodeId,
        /// Per-channel scale.
        scale: Vec<f64>,
        /// Per-channel shift.
        shift: Vec<f64>,
    },
    /// Channel-wise concatenation (SqueezeNet expand paths).
    Concat {
        /// Producers of the tensors to concatenate.
        inputs: Vec<NodeId>,
    },
    /// Flattens to a vector (metadata-only; precedes a dense layer).
    Flatten {
        /// Producer of the input tensor.
        input: NodeId,
    },
}

impl Op {
    /// The node's data dependencies.
    pub fn inputs(&self) -> Vec<NodeId> {
        match self {
            Op::Input { .. } => vec![],
            Op::Conv2d { input, .. }
            | Op::MatMul { input, .. }
            | Op::AvgPool2d { input, .. }
            | Op::GlobalAvgPool { input }
            | Op::Activation { input, .. }
            | Op::BatchNorm { input, .. }
            | Op::Flatten { input } => vec![*input],
            Op::Concat { inputs } => inputs.clone(),
        }
    }

    /// Short human-readable op name.
    pub fn name(&self) -> &'static str {
        match self {
            Op::Input { .. } => "input",
            Op::Conv2d { .. } => "conv2d",
            Op::MatMul { .. } => "matmul",
            Op::AvgPool2d { .. } => "avgpool2d",
            Op::GlobalAvgPool { .. } => "globalavgpool",
            Op::Activation { .. } => "activation",
            Op::BatchNorm { .. } => "batchnorm",
            Op::Concat { .. } => "concat",
            Op::Flatten { .. } => "flatten",
        }
    }
}

/// A tensor circuit: ops in topological order plus a designated output.
#[derive(Debug, Clone)]
pub struct Circuit {
    ops: Vec<Op>,
    output: NodeId,
}

impl Circuit {
    /// The operations in topological order (index = [`NodeId`]).
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// The output node.
    pub fn output(&self) -> NodeId {
        self.output
    }

    /// Shape of the encrypted input: the first [`Op::Input`]'s, if any.
    pub fn input_shape(&self) -> Option<&[usize]> {
        self.ops.iter().find_map(|op| match op {
            Op::Input { shape } => Some(shape.as_slice()),
            _ => None,
        })
    }

    /// Infers the shape of every node.
    ///
    /// # Panics
    ///
    /// Panics if an op's input shapes are inconsistent.
    pub fn shapes(&self) -> Vec<Vec<usize>> {
        let mut shapes: Vec<Vec<usize>> = Vec::with_capacity(self.ops.len());
        for op in &self.ops {
            let shape = match op {
                Op::Input { shape } => shape.clone(),
                Op::Conv2d { input, weights, stride, padding, .. } => {
                    let [_, h, w] = shapes[*input][..] else { panic!("conv input must be CHW") };
                    let [k, _, r, s] = weights.shape()[..] else { panic!("weights must be KCRS") };
                    let (oh, _) = ops::conv_output_dim(h, r, *stride, *padding);
                    let (ow, _) = ops::conv_output_dim(w, s, *stride, *padding);
                    vec![k, oh, ow]
                }
                Op::MatMul { input, weights, .. } => {
                    let numel: usize = shapes[*input].iter().product();
                    let [out, inp] = weights.shape()[..] else { panic!("weights must be 2-D") };
                    assert_eq!(numel, inp, "dense layer input size mismatch");
                    vec![out]
                }
                Op::AvgPool2d { input, kernel, stride } => {
                    let [c, h, w] = shapes[*input][..] else { panic!("pool input must be CHW") };
                    let (oh, _) = ops::conv_output_dim(h, *kernel, *stride, Padding::Valid);
                    let (ow, _) = ops::conv_output_dim(w, *kernel, *stride, Padding::Valid);
                    vec![c, oh, ow]
                }
                Op::GlobalAvgPool { input } => {
                    let [c, _, _] = shapes[*input][..] else { panic!("pool input must be CHW") };
                    vec![c, 1, 1]
                }
                Op::Activation { input, .. } | Op::BatchNorm { input, .. } => {
                    shapes[*input].clone()
                }
                Op::Concat { inputs } => {
                    let [_, h, w] = shapes[inputs[0]][..] else { panic!("concat inputs CHW") };
                    let mut c = 0usize;
                    for &i in inputs {
                        let [ci, hi, wi] = shapes[i][..] else { panic!("concat inputs CHW") };
                        assert_eq!((hi, wi), (h, w), "concat spatial mismatch");
                        c += ci;
                    }
                    vec![c, h, w]
                }
                Op::Flatten { input } => {
                    vec![shapes[*input].iter().product()]
                }
            };
            shapes.push(shape);
        }
        shapes
    }

    /// Reference floating-point evaluation (the unencrypted inference
    /// engine). `inputs` supplies one tensor per [`Op::Input`], in order.
    ///
    /// # Panics
    ///
    /// Panics on a missing or misshapen input, and with the [`ShapeError`]
    /// text when an operation rejects its operands' shapes.
    ///
    /// [`ShapeError`]: crate::ops::ShapeError
    pub fn eval(&self, inputs: &[Tensor]) -> Tensor {
        let mut values: Vec<Tensor> = Vec::with_capacity(self.ops.len());
        let mut next_input = 0usize;
        for op in &self.ops {
            let v = match op {
                Op::Input { shape } => {
                    let t = inputs
                        .get(next_input)
                        .unwrap_or_else(|| panic!("missing input {next_input}"))
                        .clone();
                    assert_eq!(t.shape(), &shape[..], "input shape mismatch");
                    next_input += 1;
                    Ok(t)
                }
                Op::Conv2d { input, weights, bias, stride, padding } => {
                    ops::try_conv2d(&values[*input], weights, bias.as_deref(), *stride, *padding)
                }
                Op::MatMul { input, weights, bias } => {
                    ops::try_matmul_vec(weights, values[*input].data(), bias.as_deref())
                        .map(|y| Tensor::new(vec![y.len()], y))
                }
                Op::AvgPool2d { input, kernel, stride } => {
                    ops::try_avg_pool2d(&values[*input], *kernel, *stride)
                }
                Op::GlobalAvgPool { input } => ops::try_global_avg_pool(&values[*input]),
                Op::Activation { input, a, b } => Ok(ops::activation(&values[*input], *a, *b)),
                Op::BatchNorm { input, scale, shift } => {
                    ops::try_batch_norm(&values[*input], scale, shift)
                }
                Op::Concat { inputs } => {
                    let ts: Vec<&Tensor> = inputs.iter().map(|&i| &values[i]).collect();
                    ops::try_concat_channels(&ts)
                }
                Op::Flatten { input } => {
                    let t = &values[*input];
                    Ok(t.reshape(vec![t.numel()]))
                }
            };
            values.push(v.unwrap_or_else(|e| panic!("{e}")));
        }
        values[self.output].clone()
    }

    /// Count of each op kind, for reports.
    pub fn layer_counts(&self) -> std::collections::BTreeMap<&'static str, usize> {
        let mut m = std::collections::BTreeMap::new();
        for op in &self.ops {
            *m.entry(op.name()).or_insert(0) += 1;
        }
        m
    }

    /// Multiplicative depth in *rescale steps* a straightforward execution
    /// needs: one per weighted op (conv/dense/batch-norm), two per
    /// activation (square plus coefficient).
    pub fn multiplicative_depth(&self) -> usize {
        let mut depth = vec![0usize; self.ops.len()];
        for (i, op) in self.ops.iter().enumerate() {
            depth[i] = match op {
                Op::Input { .. } => 0,
                Op::Conv2d { input, .. }
                | Op::MatMul { input, .. }
                | Op::BatchNorm { input, .. }
                | Op::AvgPool2d { input, .. }
                | Op::GlobalAvgPool { input } => depth[*input] + 1,
                Op::Activation { input, .. } => depth[*input] + 2,
                Op::Concat { inputs } => {
                    inputs.iter().map(|&i| depth[i]).max().unwrap_or(0)
                }
                Op::Flatten { input } => depth[*input],
            };
        }
        depth[self.output]
    }
}

/// Incremental circuit construction.
///
/// # Examples
///
/// ```
/// use chet_tensor::circuit::CircuitBuilder;
/// use chet_tensor::tensor::Tensor;
///
/// let mut b = CircuitBuilder::new();
/// let x = b.input(vec![1, 8, 8]);
/// let y = b.avg_pool2d(x, 2, 2);
/// let circuit = b.build(y);
/// assert_eq!(circuit.shapes()[y], vec![1, 4, 4]);
/// ```
#[derive(Debug, Default)]
pub struct CircuitBuilder {
    ops: Vec<Op>,
}

impl CircuitBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        CircuitBuilder { ops: Vec::new() }
    }

    fn push(&mut self, op: Op) -> NodeId {
        for dep in op.inputs() {
            assert!(dep < self.ops.len(), "op references undefined node {dep}");
        }
        self.ops.push(op);
        self.ops.len() - 1
    }

    /// Adds an encrypted input of the given CHW shape.
    pub fn input(&mut self, shape: Vec<usize>) -> NodeId {
        self.push(Op::Input { shape })
    }

    /// Adds a convolution.
    pub fn conv2d(
        &mut self,
        input: NodeId,
        weights: Tensor,
        bias: Option<Vec<f64>>,
        stride: usize,
        padding: Padding,
    ) -> NodeId {
        self.push(Op::Conv2d { input, weights, bias, stride, padding })
    }

    /// Adds a dense layer.
    pub fn matmul(&mut self, input: NodeId, weights: Tensor, bias: Option<Vec<f64>>) -> NodeId {
        self.push(Op::MatMul { input, weights, bias })
    }

    /// Adds average pooling.
    pub fn avg_pool2d(&mut self, input: NodeId, kernel: usize, stride: usize) -> NodeId {
        self.push(Op::AvgPool2d { input, kernel, stride })
    }

    /// Adds global average pooling.
    pub fn global_avg_pool(&mut self, input: NodeId) -> NodeId {
        self.push(Op::GlobalAvgPool { input })
    }

    /// Adds the HE-compatible activation `a·x² + b·x`.
    pub fn activation(&mut self, input: NodeId, a: f64, b: f64) -> NodeId {
        self.push(Op::Activation { input, a, b })
    }

    /// Adds a folded batch-norm.
    pub fn batch_norm(&mut self, input: NodeId, scale: Vec<f64>, shift: Vec<f64>) -> NodeId {
        self.push(Op::BatchNorm { input, scale, shift })
    }

    /// Adds a channel concatenation.
    pub fn concat(&mut self, inputs: Vec<NodeId>) -> NodeId {
        self.push(Op::Concat { inputs })
    }

    /// Adds a flatten.
    pub fn flatten(&mut self, input: NodeId) -> NodeId {
        self.push(Op::Flatten { input })
    }

    /// Finalizes the circuit with `output` as the result node.
    ///
    /// # Panics
    ///
    /// Panics if `output` does not name a built node.
    pub fn build(self, output: NodeId) -> Circuit {
        assert!(output < self.ops.len(), "output node {output} is undefined");
        Circuit { ops: self.ops, output }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_circuit() -> Circuit {
        let mut b = CircuitBuilder::new();
        let x = b.input(vec![1, 4, 4]);
        let w = Tensor::from_fn(vec![2, 1, 2, 2], |i| if i[0] == 0 { 1.0 } else { 0.5 });
        let c = b.conv2d(x, w, Some(vec![0.0, 1.0]), 2, Padding::Valid);
        let a = b.activation(c, 0.1, 1.0);
        let f = b.flatten(a);
        let fc = b.matmul(f, Tensor::from_fn(vec![2, 8], |i| (i[1] % 2) as f64), None);
        b.build(fc)
    }

    #[test]
    fn shapes_inferred() {
        let c = tiny_circuit();
        let shapes = c.shapes();
        assert_eq!(shapes[0], vec![1, 4, 4]);
        assert_eq!(shapes[1], vec![2, 2, 2]);
        assert_eq!(shapes[2], vec![2, 2, 2]);
        assert_eq!(shapes[3], vec![8]);
        assert_eq!(shapes[4], vec![2]);
    }

    #[test]
    fn eval_matches_composed_ops() {
        let c = tiny_circuit();
        let input = Tensor::from_fn(vec![1, 4, 4], |i| (i[1] + i[2]) as f64);
        let out = c.eval(&[input.clone()]);
        assert_eq!(out.shape(), &[2]);
        // Spot check against manual composition.
        let w = match &c.ops()[1] {
            Op::Conv2d { weights, .. } => weights.clone(),
            _ => unreachable!(),
        };
        let conv =
            crate::ops::try_conv2d(&input, &w, Some(&[0.0, 1.0]), 2, Padding::Valid).unwrap();
        let act = crate::ops::activation(&conv, 0.1, 1.0);
        let flat: Vec<f64> = act.data().to_vec();
        let wfc = match &c.ops()[4] {
            Op::MatMul { weights, .. } => weights.clone(),
            _ => unreachable!(),
        };
        let expect = crate::ops::try_matmul_vec(&wfc, &flat, None).unwrap();
        assert_eq!(out.data(), &expect[..]);
    }

    #[test]
    fn concat_shapes() {
        let mut b = CircuitBuilder::new();
        let x = b.input(vec![2, 4, 4]);
        let w1 = Tensor::random(vec![3, 2, 1, 1], 1.0, 1);
        let w2 = Tensor::random(vec![5, 2, 3, 3], 1.0, 2);
        let c1 = b.conv2d(x, w1, None, 1, Padding::Same);
        let c2 = b.conv2d(x, w2, None, 1, Padding::Same);
        let cc = b.concat(vec![c1, c2]);
        let circuit = b.build(cc);
        assert_eq!(circuit.shapes()[cc], vec![8, 4, 4]);
    }

    #[test]
    fn depth_accounts_for_activations() {
        let c = tiny_circuit();
        // conv (1) + activation (2) + matmul (1)
        assert_eq!(c.multiplicative_depth(), 4);
    }

    #[test]
    fn layer_counts() {
        let c = tiny_circuit();
        let counts = c.layer_counts();
        assert_eq!(counts["conv2d"], 1);
        assert_eq!(counts["matmul"], 1);
        assert_eq!(counts["activation"], 1);
    }

    #[test]
    #[should_panic(expected = "undefined node")]
    fn forward_reference_panics() {
        let mut b = CircuitBuilder::new();
        b.flatten(3);
    }

    #[test]
    #[should_panic(expected = "input shape mismatch")]
    fn eval_rejects_wrong_input_shape() {
        let c = tiny_circuit();
        c.eval(&[Tensor::zeros(vec![1, 5, 5])]);
    }
}
