//! The [`Sequential`] model container.

use crate::layers::{Layer, LayerKind};
use crate::loss::{accuracy, softmax_cross_entropy};
use crate::optim::Sgd;
use crate::tensor::Tensor;

/// Number of layers of each coarse kind in a model.
///
/// These counts feed the `S_CONV` / `S_FC` / `S_RC` features of the AutoFL
/// reinforcement-learning state (Table 1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LayerCounts {
    /// Convolutional layers (regular + depthwise).
    pub conv: usize,
    /// Fully-connected layers.
    pub fc: usize,
    /// Recurrent layers.
    pub rc: usize,
}

/// A feed-forward stack of [`Layer`]s trained with softmax cross-entropy.
///
/// `Sequential` owns the layers, chains forward/backward passes through
/// them, and exposes the flat parameter vector used by federated
/// aggregation (`param_vector` / `set_param_vector`).
///
/// # Examples
///
/// ```
/// use autofl_nn::layers::{Dense, Relu};
/// use autofl_nn::model::Sequential;
/// use autofl_nn::tensor::Tensor;
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let mut rng = SmallRng::seed_from_u64(0);
/// let mut model = Sequential::new(vec![4]);
/// model.push(Dense::new(4, 8, &mut rng));
/// model.push(Relu::new());
/// model.push(Dense::new(8, 2, &mut rng));
/// let logits = model.forward(&Tensor::zeros(vec![3, 4]), false);
/// assert_eq!(logits.shape(), &[3, 2]);
/// ```
pub struct Sequential {
    layers: Vec<Box<dyn Layer + Send>>,
    input_shape: Vec<usize>,
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sequential")
            .field("input_shape", &self.input_shape)
            .field(
                "layers",
                &self.layers.iter().map(|l| l.name()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl Sequential {
    /// Creates an empty model expecting per-sample inputs of `input_shape`
    /// (the batch dimension is added at call time).
    pub fn new(input_shape: Vec<usize>) -> Self {
        Sequential {
            layers: Vec::new(),
            input_shape,
        }
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: impl Layer + Send + 'static) -> &mut Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Per-sample input shape.
    pub fn input_shape(&self) -> &[usize] {
        &self.input_shape
    }

    /// Runs all layers forward.
    pub fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x, train);
        }
        x
    }

    /// Runs all layers backward, accumulating parameter gradients.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut g = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    /// Clears all accumulated gradients.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }

    /// Visits every `(parameter, gradient)` pair across all layers.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }

    /// Total number of trainable scalars.
    pub fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p, _| n += p.len());
        n
    }

    /// Copies all parameters into one flat vector (layer order).
    pub fn param_vector(&mut self) -> Vec<f32> {
        let mut v = Vec::new();
        self.visit_params(&mut |p, _| v.extend_from_slice(p.data()));
        v
    }

    /// Overwrites all parameters from a flat vector.
    ///
    /// # Panics
    ///
    /// Panics if `flat.len()` differs from [`Sequential::param_count`].
    pub fn set_param_vector(&mut self, flat: &[f32]) {
        let mut off = 0;
        self.visit_params(&mut |p, _| {
            let n = p.len();
            p.data_mut().copy_from_slice(&flat[off..off + n]);
            off += n;
        });
        assert_eq!(off, flat.len(), "parameter vector length mismatch");
    }

    /// Trains on one `(inputs, labels)` mini-batch; returns `(loss, accuracy)`.
    pub fn train_batch(&mut self, x: &Tensor, labels: &[usize], sgd: &mut Sgd) -> (f32, f32) {
        let logits = self.forward(x, true);
        let acc = accuracy(&logits, labels);
        let (loss, grad) = softmax_cross_entropy(&logits, labels);
        self.zero_grad();
        let _ = self.backward(&grad);
        sgd.step(self);
        (loss, acc)
    }

    /// Evaluates `(loss, accuracy)` without touching parameters.
    pub fn evaluate(&mut self, x: &Tensor, labels: &[usize]) -> (f32, f32) {
        let logits = self.forward(x, false);
        let (loss, _) = softmax_cross_entropy(&logits, labels);
        (loss, accuracy(&logits, labels))
    }

    /// Forward FLOPs for one sample, chaining actual activation shapes.
    pub fn flops_per_sample(&self) -> u64 {
        let mut shape = self.input_shape.clone();
        let mut total = 0u64;
        for layer in &self.layers {
            total += layer.flops_per_sample(&shape);
            shape = layer.output_shape(&shape);
        }
        total
    }

    /// Training FLOPs for one sample; the backward pass costs roughly twice
    /// the forward pass, the standard 3x-forward estimate.
    pub fn training_flops_per_sample(&self) -> u64 {
        3 * self.flops_per_sample()
    }

    /// Layer counts per coarse kind (CONV / FC / RC).
    pub fn layer_counts(&self) -> LayerCounts {
        let mut counts = LayerCounts::default();
        for layer in &self.layers {
            match layer.kind() {
                LayerKind::Conv => counts.conv += 1,
                LayerKind::FullyConnected => counts.fc += 1,
                LayerKind::Recurrent => counts.rc += 1,
                LayerKind::Other => {}
            }
        }
        counts
    }

    /// Per-sample output shape.
    pub fn output_shape(&self) -> Vec<usize> {
        let mut shape = self.input_shape.clone();
        for layer in &self.layers {
            shape = layer.output_shape(&shape);
        }
        shape
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Conv2d, Dense, Flatten, MaxPool2d, Relu};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn tiny_cnn(rng: &mut SmallRng) -> Sequential {
        let mut m = Sequential::new(vec![1, 8, 8]);
        m.push(Conv2d::new(1, 4, 3, 1, 1, rng));
        m.push(Relu::new());
        m.push(MaxPool2d::new(2));
        m.push(Flatten::new());
        m.push(Dense::new(4 * 4 * 4, 3, rng));
        m
    }

    #[test]
    fn param_vector_round_trip() {
        let mut rng = SmallRng::seed_from_u64(51);
        let mut m = tiny_cnn(&mut rng);
        let v = m.param_vector();
        assert_eq!(v.len(), m.param_count());
        let doubled: Vec<f32> = v.iter().map(|x| x * 2.0).collect();
        m.set_param_vector(&doubled);
        assert_eq!(m.param_vector(), doubled);
    }

    #[test]
    fn flops_chain_through_shapes() {
        let mut rng = SmallRng::seed_from_u64(52);
        let m = tiny_cnn(&mut rng);
        // conv: (2*9+1)*4*64 = 4864; relu: 256; pool: 256; fc: 2*64*3+3 = 387.
        assert_eq!(m.flops_per_sample(), 4864 + 256 + 256 + 387);
        assert_eq!(m.training_flops_per_sample(), 3 * m.flops_per_sample());
    }

    #[test]
    fn layer_counts_by_kind() {
        let mut rng = SmallRng::seed_from_u64(53);
        let m = tiny_cnn(&mut rng);
        let c = m.layer_counts();
        assert_eq!((c.conv, c.fc, c.rc), (1, 1, 0));
    }

    #[test]
    fn output_shape_matches_forward() {
        let mut rng = SmallRng::seed_from_u64(54);
        let mut m = tiny_cnn(&mut rng);
        let y = m.forward(&Tensor::zeros(vec![2, 1, 8, 8]), false);
        assert_eq!(y.shape()[1..], m.output_shape()[..]);
    }

    #[test]
    fn training_reduces_loss_on_separable_data() {
        let mut rng = SmallRng::seed_from_u64(55);
        let mut m = Sequential::new(vec![2]);
        m.push(Dense::new(2, 16, &mut rng));
        m.push(Relu::new());
        m.push(Dense::new(16, 2, &mut rng));
        // Two Gaussian blobs.
        let n = 64;
        let mut xs = Vec::with_capacity(n * 2);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let label = i % 2;
            let cx = if label == 0 { -1.0 } else { 1.0 };
            xs.push(cx + rng.gen_range(-0.3..0.3));
            xs.push(cx + rng.gen_range(-0.3..0.3));
            labels.push(label);
        }
        let x = Tensor::from_vec(vec![n, 2], xs);
        let (loss0, _) = m.evaluate(&x, &labels);
        let mut sgd = Sgd::new(0.1);
        for _ in 0..30 {
            let _ = m.train_batch(&x, &labels, &mut sgd);
        }
        let (loss1, acc1) = m.evaluate(&x, &labels);
        assert!(
            loss1 < loss0,
            "loss did not improve: {} -> {}",
            loss0,
            loss1
        );
        assert!(acc1 > 0.9, "accuracy too low: {}", acc1);
    }
}
