//! The three FL workloads evaluated in the paper, plus a tiny test model.
//!
//! Each [`Workload`] carries two views:
//!
//! * **Trainable model** ([`Workload::build_trainable`]) — a scaled-down but
//!   architecturally faithful network that this crate actually trains to
//!   produce real convergence dynamics.
//! * **Reference statistics** (`reference_*`) — layer counts, FLOPs and
//!   gradient sizes of the *paper-scale* models (McMahan's FedAvg CNN, the
//!   2-layer 256-unit Shakespeare LSTM, MobileNetV1). These drive the
//!   device latency/energy models so that simulated times and energies have
//!   the paper's magnitudes, independent of the scaled-down trainable model.

use crate::layers::{
    Conv2d, Dense, DepthwiseConv2d, Embedding, Flatten, GlobalAvgPool, Lstm, MaxPool2d, Relu,
};
use crate::model::{LayerCounts, Sequential};
use rand::{rngs::SmallRng, SeedableRng};

/// Character vocabulary size used by the synthetic Shakespeare workload.
pub const SHAKESPEARE_VOCAB: usize = 65;
/// Sequence length used by the synthetic Shakespeare workload.
pub const SHAKESPEARE_SEQ_LEN: usize = 20;

/// One of the paper's three FL use cases (Section 5.2), or a tiny test
/// model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Workload {
    /// CNN trained on MNIST-like 10-class images.
    CnnMnist,
    /// LSTM trained on Shakespeare-like next-character prediction.
    LstmShakespeare,
    /// MobileNet trained on ImageNet-like images.
    MobileNetImageNet,
    /// A minimal CNN for fast unit/integration tests (not in the paper).
    TinyTest,
}

impl Workload {
    /// The three paper workloads, in the order the paper reports them.
    pub fn paper_workloads() -> [Workload; 3] {
        [
            Workload::CnnMnist,
            Workload::LstmShakespeare,
            Workload::MobileNetImageNet,
        ]
    }

    /// Short display name matching the paper's labels.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::CnnMnist => "CNN-MNIST",
            Workload::LstmShakespeare => "LSTM-Shakespeare",
            Workload::MobileNetImageNet => "MobileNet-ImageNet",
            Workload::TinyTest => "Tiny-Test",
        }
    }

    /// Number of output classes of the trainable model.
    pub fn num_classes(&self) -> usize {
        match self {
            Workload::CnnMnist => 10,
            Workload::LstmShakespeare => SHAKESPEARE_VOCAB,
            Workload::MobileNetImageNet => 10,
            Workload::TinyTest => 4,
        }
    }

    /// Per-sample input shape of the trainable model.
    pub fn input_shape(&self) -> Vec<usize> {
        match self {
            Workload::CnnMnist => vec![1, 14, 14],
            Workload::LstmShakespeare => vec![SHAKESPEARE_SEQ_LEN],
            Workload::MobileNetImageNet => vec![3, 16, 16],
            Workload::TinyTest => vec![1, 8, 8],
        }
    }

    /// Whether inputs are token-id sequences (true) or dense images (false).
    pub fn is_sequence(&self) -> bool {
        matches!(self, Workload::LstmShakespeare)
    }

    /// Builds the scaled-down trainable model, deterministically from `seed`.
    pub fn build_trainable(&self, seed: u64) -> Sequential {
        let mut rng = SmallRng::seed_from_u64(seed);
        match self {
            Workload::CnnMnist => {
                let mut m = Sequential::new(self.input_shape());
                m.push(Conv2d::new(1, 6, 3, 1, 1, &mut rng));
                m.push(Relu::new());
                m.push(MaxPool2d::new(2));
                m.push(Conv2d::new(6, 12, 3, 1, 1, &mut rng));
                m.push(Relu::new());
                m.push(MaxPool2d::new(2));
                m.push(Flatten::new());
                m.push(Dense::new(12 * 3 * 3, 32, &mut rng));
                m.push(Relu::new());
                m.push(Dense::new(32, 10, &mut rng));
                m
            }
            Workload::LstmShakespeare => {
                let mut m = Sequential::new(self.input_shape());
                m.push(Embedding::new(SHAKESPEARE_VOCAB, 8, &mut rng));
                m.push(Lstm::new(8, 32, &mut rng));
                m.push(Dense::new(32, SHAKESPEARE_VOCAB, &mut rng));
                m
            }
            Workload::MobileNetImageNet => {
                let mut m = Sequential::new(self.input_shape());
                m.push(Conv2d::new(3, 8, 3, 1, 1, &mut rng));
                m.push(Relu::new());
                // Two depthwise-separable blocks, MobileNet style.
                m.push(DepthwiseConv2d::new(8, 3, 1, 1, &mut rng));
                m.push(Conv2d::new(8, 16, 1, 1, 0, &mut rng));
                m.push(Relu::new());
                m.push(MaxPool2d::new(2));
                m.push(DepthwiseConv2d::new(16, 3, 1, 1, &mut rng));
                m.push(Conv2d::new(16, 32, 1, 1, 0, &mut rng));
                m.push(Relu::new());
                m.push(MaxPool2d::new(2));
                m.push(GlobalAvgPool::new());
                m.push(Dense::new(32, 10, &mut rng));
                m
            }
            Workload::TinyTest => {
                let mut m = Sequential::new(self.input_shape());
                m.push(Conv2d::new(1, 4, 3, 1, 1, &mut rng));
                m.push(Relu::new());
                m.push(MaxPool2d::new(2));
                m.push(Flatten::new());
                m.push(Dense::new(4 * 4 * 4, 4, &mut rng));
                m
            }
        }
    }

    /// CONV/FC/RC layer counts of the *paper-scale* model, used by the
    /// AutoFL state features (Table 1).
    pub fn reference_layer_counts(&self) -> LayerCounts {
        match self {
            // McMahan's FedAvg CNN: 2 conv + 2 fc.
            Workload::CnnMnist => LayerCounts {
                conv: 2,
                fc: 2,
                rc: 0,
            },
            // 2-layer LSTM + output projection.
            Workload::LstmShakespeare => LayerCounts {
                conv: 0,
                fc: 1,
                rc: 2,
            },
            // MobileNetV1: 13 depthwise + 13 pointwise + 1 stem = 27 conv.
            Workload::MobileNetImageNet => LayerCounts {
                conv: 27,
                fc: 1,
                rc: 0,
            },
            Workload::TinyTest => LayerCounts {
                conv: 1,
                fc: 1,
                rc: 0,
            },
        }
    }

    /// Forward FLOPs per sample of the paper-scale model.
    pub fn reference_flops_per_sample(&self) -> u64 {
        match self {
            // conv1 (5x5x32 @28x28) + conv2 (5x5x32x64 @14x14) + fc layers.
            Workload::CnnMnist => 24_600_000,
            // 80 steps x 2 LSTM layers of 256 units.
            Workload::LstmShakespeare => 127_000_000,
            // MobileNetV1 @224: 569M MACs.
            Workload::MobileNetImageNet => 1_138_000_000,
            Workload::TinyTest => 1_000_000,
        }
    }

    /// Training FLOPs per sample (3x forward).
    pub fn reference_training_flops_per_sample(&self) -> u64 {
        3 * self.reference_flops_per_sample()
    }

    /// Size in bytes of one gradient/model upload of the paper-scale model
    /// (f32 parameters).
    pub fn reference_model_bytes(&self) -> u64 {
        match self {
            Workload::CnnMnist => 1_663_370 * 4,
            Workload::LstmShakespeare => 819_462 * 4,
            Workload::MobileNetImageNet => 4_200_000 * 4,
            Workload::TinyTest => 1_000 * 4,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Sgd;
    use crate::tensor::Tensor;

    #[test]
    fn trainable_models_have_consistent_shapes() {
        // One 2-sample training step per workload keeps every model's
        // backward pass under test, not just its forward pass.
        for w in [
            Workload::CnnMnist,
            Workload::LstmShakespeare,
            Workload::MobileNetImageNet,
            Workload::TinyTest,
        ] {
            let mut m = w.build_trainable(1);
            let mut shape = vec![2];
            shape.extend(w.input_shape());
            let n: usize = shape.iter().product();
            let data = if w.is_sequence() {
                (0..n).map(|i| (i % SHAKESPEARE_VOCAB) as f32).collect()
            } else {
                (0..n).map(|i| (i % 7) as f32 / 7.0 - 0.4).collect()
            };
            let x = Tensor::from_vec(shape, data);
            let y = m.forward(&x, false);
            assert_eq!(
                y.shape(),
                &[2, w.num_classes()],
                "bad output shape for {}",
                w.name()
            );
            let before = m.param_vector();
            let (loss, _) = m.train_batch(&x, &[0, 1], &mut Sgd::new(0.05));
            assert!(loss.is_finite(), "non-finite loss for {}", w.name());
            assert_ne!(m.param_vector(), before, "{} did not train", w.name());
        }
    }

    #[test]
    fn lstm_workload_consumes_token_ids() {
        let w = Workload::LstmShakespeare;
        let mut m = w.build_trainable(2);
        let x = Tensor::from_vec(
            vec![2, SHAKESPEARE_SEQ_LEN],
            vec![3.0; 2 * SHAKESPEARE_SEQ_LEN],
        );
        let y = m.forward(&x, false);
        assert_eq!(y.shape(), &[2, SHAKESPEARE_VOCAB]);
    }

    #[test]
    fn builds_are_deterministic_per_seed() {
        let mut a = Workload::CnnMnist.build_trainable(9);
        let mut b = Workload::CnnMnist.build_trainable(9);
        assert_eq!(a.param_vector(), b.param_vector());
        let mut c = Workload::CnnMnist.build_trainable(10);
        assert_ne!(a.param_vector(), c.param_vector());
    }

    #[test]
    fn reference_counts_match_paper_models() {
        let c = Workload::MobileNetImageNet.reference_layer_counts();
        assert_eq!(c.conv, 27);
        let l = Workload::LstmShakespeare.reference_layer_counts();
        assert_eq!(l.rc, 2);
    }

    #[test]
    fn reference_flops_ordering_matches_paper() {
        // MobileNet > LSTM > CNN in per-sample compute.
        let f = |w: Workload| w.reference_flops_per_sample();
        assert!(f(Workload::MobileNetImageNet) > f(Workload::LstmShakespeare));
        assert!(f(Workload::LstmShakespeare) > f(Workload::CnnMnist));
    }

    #[test]
    fn trainable_layer_counts_have_expected_kinds() {
        let c = Workload::CnnMnist.build_trainable(3).layer_counts();
        assert_eq!((c.conv, c.fc, c.rc), (2, 2, 0));
        let l = Workload::LstmShakespeare.build_trainable(3).layer_counts();
        assert_eq!((l.conv, l.fc, l.rc), (0, 1, 1));
    }
}
