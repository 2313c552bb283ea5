//! In-memory labelled datasets.

use autofl_nn::tensor::Tensor;
use rand::seq::SliceRandom;
use rand::Rng;

/// A labelled dataset of fixed-shape samples.
///
/// Samples are stored flattened; [`Dataset::batch`] materialises a batched
/// [`Tensor`] in the layout the `autofl-nn` layers expect.
#[derive(Debug, Clone)]
pub struct Dataset {
    xs: Vec<f32>,
    labels: Vec<usize>,
    sample_shape: Vec<usize>,
    num_classes: usize,
}

impl Dataset {
    /// Creates a dataset from flattened samples.
    ///
    /// # Panics
    ///
    /// Panics if `xs.len()` is not `labels.len() * product(sample_shape)`,
    /// or any label is `>= num_classes`.
    pub fn new(
        xs: Vec<f32>,
        labels: Vec<usize>,
        sample_shape: Vec<usize>,
        num_classes: usize,
    ) -> Self {
        let per: usize = sample_shape.iter().product();
        assert_eq!(
            xs.len(),
            labels.len() * per,
            "sample buffer length mismatch"
        );
        assert!(
            labels.iter().all(|&l| l < num_classes),
            "label out of range"
        );
        Dataset {
            xs,
            labels,
            sample_shape,
            num_classes,
        }
    }

    /// Creates a dataset that stores only labels — no sample features.
    ///
    /// This is the storage mode behind surrogate-fidelity simulations:
    /// partitioning and every cohort-skew statistic depend only on the
    /// labels, so a million-device fleet does not need gigabytes of
    /// synthetic pixels it will never read. Calling [`Dataset::batch`] or
    /// [`Dataset::minibatches`] on a labels-only dataset panics.
    pub fn labels_only(labels: Vec<usize>, sample_shape: Vec<usize>, num_classes: usize) -> Self {
        assert!(
            labels.iter().all(|&l| l < num_classes),
            "label out of range"
        );
        Dataset {
            xs: Vec::new(),
            labels,
            sample_shape,
            num_classes,
        }
    }

    /// Whether the dataset stores sample features (false for
    /// [`Dataset::labels_only`] stores).
    pub fn has_features(&self) -> bool {
        !self.xs.is_empty() || self.labels.is_empty()
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Per-sample shape (no batch dimension).
    pub fn sample_shape(&self) -> &[usize] {
        &self.sample_shape
    }

    /// Number of label classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// All labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Builds a batched tensor + label vector from sample indices.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn batch(&self, indices: &[usize]) -> (Tensor, Vec<usize>) {
        assert!(
            self.has_features(),
            "labels-only dataset holds no sample features to batch"
        );
        let per: usize = self.sample_shape.iter().product();
        let mut buf = Vec::with_capacity(indices.len() * per);
        let mut labels = Vec::with_capacity(indices.len());
        for &i in indices {
            buf.extend_from_slice(&self.xs[i * per..(i + 1) * per]);
            labels.push(self.labels[i]);
        }
        let mut shape = vec![indices.len()];
        shape.extend_from_slice(&self.sample_shape);
        (Tensor::from_vec(shape, buf), labels)
    }

    /// Splits `indices` (a device's slice of
    /// [`crate::partition::Partition::device_indices`]) into shuffled
    /// mini-batches of at most `batch_size`.
    pub fn minibatches(
        &self,
        indices: &[u32],
        batch_size: usize,
        rng: &mut impl Rng,
    ) -> Vec<(Tensor, Vec<usize>)> {
        assert!(batch_size > 0, "batch size must be positive");
        let mut order: Vec<usize> = indices.iter().map(|&i| i as usize).collect();
        order.shuffle(rng);
        order
            .chunks(batch_size)
            .map(|chunk| self.batch(chunk))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn toy() -> Dataset {
        Dataset::new(
            (0..12).map(|v| v as f32).collect(),
            vec![0, 1, 2, 0],
            vec![3],
            3,
        )
    }

    #[test]
    fn batch_gathers_rows() {
        let d = toy();
        let (x, y) = d.batch(&[1, 3]);
        assert_eq!(x.shape(), &[2, 3]);
        assert_eq!(x.data(), &[3.0, 4.0, 5.0, 9.0, 10.0, 11.0]);
        assert_eq!(y, vec![1, 0]);
    }

    #[test]
    fn minibatches_cover_all_indices() {
        let d = toy();
        let mut rng = SmallRng::seed_from_u64(1);
        let batches = d.minibatches(&[0, 1, 2, 3], 3, &mut rng);
        assert_eq!(batches.len(), 2);
        let total: usize = batches.iter().map(|(_, y)| y.len()).sum();
        assert_eq!(total, 4);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn rejects_bad_labels() {
        let _ = Dataset::new(vec![0.0; 3], vec![5], vec![3], 3);
    }
}
