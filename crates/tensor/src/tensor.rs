//! Dense row-major `f64` tensors.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A dense multidimensional array of `f64` in row-major order.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f64>,
}

impl Tensor {
    /// Creates a tensor from a shape and matching data vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from the shape's element count.
    pub fn new(shape: Vec<usize>, data: Vec<f64>) -> Self {
        let numel: usize = shape.iter().product();
        assert_eq!(data.len(), numel, "data length must match shape volume");
        Tensor { shape, data }
    }

    /// An all-zeros tensor.
    pub fn zeros(shape: Vec<usize>) -> Self {
        let numel = shape.iter().product();
        Tensor { shape, data: vec![0.0; numel] }
    }

    /// Builds a tensor by calling `f` with each multi-index.
    pub fn from_fn(shape: Vec<usize>, mut f: impl FnMut(&[usize]) -> f64) -> Self {
        let numel: usize = shape.iter().product();
        let mut idx = vec![0usize; shape.len()];
        let mut data = Vec::with_capacity(numel);
        for _ in 0..numel {
            data.push(f(&idx));
            for d in (0..shape.len()).rev() {
                idx[d] += 1;
                if idx[d] < shape[d] {
                    break;
                }
                idx[d] = 0;
            }
        }
        Tensor { shape, data }
    }

    /// A tensor with entries drawn uniformly from `[-bound, bound]`,
    /// deterministically from `seed`.
    pub fn random(shape: Vec<usize>, bound: f64, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let numel = shape.iter().product();
        Tensor { shape, data: (0..numel).map(|_| rng.gen_range(-bound..=bound)).collect() }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Flat read-only data access (row-major).
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Flat mutable data access (row-major).
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    fn flat_index(&self, idx: &[usize]) -> usize {
        assert_eq!(idx.len(), self.shape.len(), "index rank mismatch");
        let mut flat = 0usize;
        for (d, &i) in idx.iter().enumerate() {
            assert!(i < self.shape[d], "index {i} out of bounds for dim {d}");
            flat = flat * self.shape[d] + i;
        }
        flat
    }

    /// Element access by multi-index.
    ///
    /// # Panics
    ///
    /// Panics on rank mismatch or out-of-bounds indices.
    pub fn at(&self, idx: &[usize]) -> f64 {
        self.data[self.flat_index(idx)]
    }

    /// Mutable element access by multi-index.
    pub fn at_mut(&mut self, idx: &[usize]) -> &mut f64 {
        let flat = self.flat_index(idx);
        &mut self.data[flat]
    }

    /// Reinterprets the shape without moving data.
    ///
    /// # Panics
    ///
    /// Panics if the new shape has a different element count.
    pub fn reshape(&self, shape: Vec<usize>) -> Tensor {
        Tensor::new(shape, self.data.clone())
    }

    /// Largest absolute difference to another tensor of the same shape. A
    /// NaN difference is `f64::INFINITY`, so a NaN slot fails every
    /// `max_abs_diff(..) < tol` check (`f64::max` alone would drop it).
    pub fn max_abs_diff(&self, other: &Tensor) -> f64 {
        assert_eq!(self.shape, other.shape, "shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| {
                let d = (a - b).abs();
                if d.is_nan() {
                    f64::INFINITY
                } else {
                    d
                }
            })
            .fold(0.0, f64::max)
    }

    /// Index of the maximum element (argmax over the flattened tensor).
    pub fn argmax(&self) -> usize {
        self.data
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("no NaNs"))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_fn_row_major_order() {
        let t = Tensor::from_fn(vec![2, 3], |i| (i[0] * 10 + i[1]) as f64);
        assert_eq!(t.data(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        assert_eq!(t.at(&[1, 2]), 12.0);
    }

    #[test]
    fn at_mut_writes() {
        let mut t = Tensor::zeros(vec![2, 2]);
        *t.at_mut(&[0, 1]) = 5.0;
        assert_eq!(t.at(&[0, 1]), 5.0);
        assert_eq!(t.data()[1], 5.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_fn(vec![2, 6], |i| (i[0] + i[1]) as f64);
        let r = t.reshape(vec![3, 4]);
        assert_eq!(r.shape(), &[3, 4]);
        assert_eq!(r.data(), t.data());
    }

    #[test]
    #[should_panic(expected = "shape volume")]
    fn bad_reshape_panics() {
        Tensor::zeros(vec![2, 3]).reshape(vec![5]);
    }

    #[test]
    fn random_is_deterministic_and_bounded() {
        let a = Tensor::random(vec![100], 0.5, 9);
        let b = Tensor::random(vec![100], 0.5, 9);
        assert_eq!(a, b);
        assert!(a.data().iter().all(|v| v.abs() <= 0.5));
    }

    #[test]
    fn argmax_and_diff() {
        let a = Tensor::new(vec![4], vec![0.1, 3.0, -2.0, 1.0]);
        assert_eq!(a.argmax(), 1);
        let b = Tensor::new(vec![4], vec![0.1, 3.5, -2.0, 1.0]);
        assert!((a.max_abs_diff(&b) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn a_nan_difference_is_infinite() {
        let a = Tensor::new(vec![3], vec![0.0, f64::NAN, 1.0]);
        let b = Tensor::new(vec![3], vec![0.0, 0.0, 1.0]);
        assert_eq!(a.max_abs_diff(&b), f64::INFINITY);
        assert_eq!(b.max_abs_diff(&a), f64::INFINITY);
        let inf = Tensor::new(vec![3], vec![0.0, f64::INFINITY, 1.0]);
        assert_eq!(inf.max_abs_diff(&inf), f64::INFINITY);
        assert_eq!(a.max_abs_diff(&a), f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_panics() {
        Tensor::zeros(vec![2, 2]).at(&[2, 0]);
    }
}
