//! Distributing training samples across devices: IID and Dirichlet non-IID.
//!
//! Section 5.2 of the paper defines four distribution scenarios: *Ideal
//! IID* (every device sees every class) and *Non-IID (M%)* where M% of the
//! devices receive data allocated per class by a Dirichlet distribution
//! with concentration 0.1, while the remaining devices hold IID samples.

use crate::dataset::Dataset;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Gamma};
use serde::{Deserialize, Serialize};

/// The paper's Dirichlet concentration parameter for non-IID devices.
pub const PAPER_DIRICHLET_ALPHA: f64 = 0.1;

/// How training data is spread across the device fleet.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DataDistribution {
    /// All classes evenly distributed to every device.
    IidIdeal,
    /// `fraction_non_iid` of the devices receive Dirichlet-concentrated
    /// data (per-class proportions drawn from `Dir(alpha)`); the rest are
    /// IID.
    NonIid {
        /// Fraction of devices with non-IID data, in `[0, 1]`.
        fraction_non_iid: f64,
        /// Dirichlet concentration; the paper uses 0.1.
        alpha: f64,
    },
}

impl DataDistribution {
    /// The paper's `Non-IID (M%)` scenario with the default α = 0.1.
    pub fn non_iid_percent(percent: u32) -> Self {
        DataDistribution::NonIid {
            fraction_non_iid: percent as f64 / 100.0,
            alpha: PAPER_DIRICHLET_ALPHA,
        }
    }

    /// Display label matching the paper's figures.
    pub fn label(&self) -> String {
        match self {
            DataDistribution::IidIdeal => "Ideal IID".to_string(),
            DataDistribution::NonIid {
                fraction_non_iid, ..
            } => format!("Non-IID ({:.0}%)", fraction_non_iid * 100.0),
        }
    }
}

/// The assignment of training-sample indices to devices.
///
/// Stored flattened (CSR-style offsets into one index array, one
/// row-major class-count matrix) rather than as nested `Vec`s: at a
/// million devices the nested layout costs a million separate heap
/// allocations and pointer-chasing on every cohort-statistics walk,
/// while the flat layout is two contiguous arrays. Indices and counts
/// are `u32`: a partition holds at most `u32::MAX` samples, and a count
/// never exceeds its device's samples.
#[derive(Debug, Clone)]
pub struct Partition {
    /// `offsets[d]..offsets[d + 1]` is device `d`'s slice of `indices`.
    offsets: Vec<usize>,
    /// Flattened per-device training-sample indices.
    indices: Vec<u32>,
    non_iid_devices: Vec<bool>,
    num_classes: usize,
    /// Row-major `num_devices × num_classes` label histogram.
    counts: Vec<u32>,
}

impl Partition {
    /// Splits `dataset` across `num_devices` devices.
    ///
    /// Deterministic in `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `num_devices == 0`, the non-IID fraction is outside
    /// `[0, 1]`, or the dataset or the fleet is larger than `u32::MAX`.
    pub fn new(
        dataset: &Dataset,
        num_devices: usize,
        distribution: DataDistribution,
        seed: u64,
    ) -> Self {
        assert!(num_devices > 0, "need at least one device");
        let labels = dataset.labels();
        let total = labels.len();
        let samples = u32::try_from(total).expect("a partition holds at most u32::MAX samples");
        let devices =
            u32::try_from(num_devices).expect("a partition holds at most u32::MAX devices");
        let mut rng = SmallRng::seed_from_u64(seed);
        let classes = dataset.num_classes();

        // Group sample indices by class into one pool, class `c` owning
        // `pool[next[c]..end[c]]` in sample order, then shuffle each class
        // in class order.
        let mut end = vec![0usize; classes];
        for &label in labels {
            end[label] += 1;
        }
        let mut filled = 0;
        for e in end.iter_mut() {
            filled += *e;
            *e = filled;
        }
        // Filled back to front, so each cursor stops on its class's start.
        let mut next = end.clone();
        let mut pool = vec![0u32; total];
        for (i, &label) in (0..samples).zip(labels).rev() {
            next[label] -= 1;
            pool[next[label]] = i;
        }
        for c in 0..classes {
            pool[next[c]..end[c]].shuffle(&mut rng);
        }

        // Decide which devices are non-IID.
        let (fraction, alpha) = match distribution {
            DataDistribution::IidIdeal => (0.0, PAPER_DIRICHLET_ALPHA),
            DataDistribution::NonIid {
                fraction_non_iid,
                alpha,
            } => {
                assert!(
                    (0.0..=1.0).contains(&fraction_non_iid),
                    "non-IID fraction must be in [0, 1]"
                );
                (fraction_non_iid, alpha)
            }
        };
        let n_non_iid = (num_devices as f64 * fraction).round() as usize;
        let mut order: Vec<u32> = (0..devices).collect();
        order.shuffle(&mut rng);
        let mut non_iid_devices = vec![false; num_devices];
        for &d in order.iter().take(n_non_iid) {
            non_iid_devices[d as usize] = true;
        }
        drop(order);

        // Every device receives the same number of samples, plus one of
        // the `rest` left over by the integer division for the first
        // `rest` devices; what differs is the *label mix*. IID devices
        // draw their quota stratified across classes; each non-IID device
        // draws its quota according to its own Dirichlet(α) class
        // distribution (the paper's "a proportion of the samples of each
        // data class is distributed following Dirichlet distribution").
        // Both phases write each pick straight into the device's slice
        // and count its class. They take `num_devices × quota <= total`
        // samples in all, so some pool always holds the next one.
        let quota = total / num_devices;
        let rest = total - num_devices * quota;
        let offsets: Vec<usize> = (0..=num_devices).map(|d| d * quota + d.min(rest)).collect();
        let mut indices = vec![0u32; total];
        let mut counts = vec![0u32; num_devices * classes];
        let mut take = |device: usize, k: usize, class: usize, next: &mut [usize]| {
            indices[offsets[device] + k] = pool[next[class]];
            next[class] += 1;
            counts[device * classes + class] += 1;
        };

        // IID devices first: round-robin over classes.
        for device in (0..num_devices).filter(|&d| !non_iid_devices[d]) {
            let mut class = device % classes.max(1);
            for k in 0..quota {
                let mut scanned = 0;
                while next[class] >= end[class] {
                    debug_assert!(scanned < classes, "no pool left, yet n × quota <= total");
                    class = (class + 1) % classes;
                    scanned += 1;
                }
                take(device, k, class, &mut next);
                class = (class + 1) % classes;
            }
        }
        // Non-IID devices: per-device Dirichlet class mix over what's left.
        let mut props = vec![0.0; classes];
        for device in (0..num_devices).filter(|&d| non_iid_devices[d]) {
            dirichlet(alpha, &mut rng, &mut props);
            for k in 0..quota {
                // Sample a class, falling back to the fullest remaining
                // pool when the drawn class is exhausted.
                let draw: f64 = rng.gen();
                let mut acc = 0.0;
                let mut class = classes - 1;
                for (c, &p) in props.iter().enumerate() {
                    acc += p;
                    if draw <= acc {
                        class = c;
                        break;
                    }
                }
                if next[class] >= end[class] {
                    class = (0..classes)
                        .filter(|&c| next[c] < end[c])
                        .max_by_key(|&c| end[c] - next[c])
                        .expect("n × quota <= total leaves a sample in some pool");
                }
                take(device, k, class, &mut next);
            }
        }
        // The `rest` samples left over go one each to devices 0, 1, …,
        // in class order.
        let mut device = 0;
        for class in 0..classes {
            while next[class] < end[class] {
                take(device, quota, class, &mut next);
                device += 1;
            }
        }
        debug_assert_eq!(device, rest);
        Partition {
            offsets,
            indices,
            non_iid_devices,
            num_classes: classes,
            counts,
        }
    }

    /// Number of devices.
    pub fn num_devices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Training-sample indices owned by `device`.
    pub fn device_indices(&self, device: usize) -> &[u32] {
        &self.indices[self.offsets[device]..self.offsets[device + 1]]
    }

    /// Number of training samples owned by `device` (no slice
    /// materialisation — the count the round engine reads per participant).
    pub fn device_sample_count(&self, device: usize) -> usize {
        self.offsets[device + 1] - self.offsets[device]
    }

    /// Whether `device` was assigned Dirichlet-concentrated data.
    pub fn is_non_iid(&self, device: usize) -> bool {
        self.non_iid_devices[device]
    }

    /// Per-class sample counts held by `device`.
    pub fn class_counts(&self, device: usize) -> &[u32] {
        let stride = self.num_classes.max(1);
        &self.counts[device * stride..(device + 1) * stride]
    }

    /// Number of classes *meaningfully represented* on `device` — the
    /// paper's `S_Data` state feature. A class counts as present when the
    /// device holds at least 10% of an even per-class share; trace
    /// allocations (a couple of stray samples of a class) do not make a
    /// device's data representative of that class.
    pub fn num_classes_present(&self, device: usize) -> usize {
        let counts = self.class_counts(device);
        let total: usize = counts.iter().map(|&c| c as usize).sum();
        if total == 0 {
            return 0;
        }
        let threshold = ((total as f64 / self.num_classes as f64) * 0.1).ceil() as usize;
        counts
            .iter()
            .filter(|&&c| c as usize >= threshold.max(1))
            .count()
    }

    /// Total number of label classes in the dataset.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// L1 distance between one device's label distribution and the uniform
    /// global distribution, in `[0, 2]`. High values mean the device's
    /// local gradients pull the global model toward a few classes (client
    /// drift).
    pub fn device_divergence(&self, device: usize) -> f64 {
        let counts = self.class_counts(device);
        let total: usize = counts.iter().map(|&k| k as usize).sum();
        if total == 0 {
            return 2.0;
        }
        let uniform = 1.0 / self.num_classes as f64;
        counts
            .iter()
            .map(|&k| (f64::from(k) / total as f64 - uniform).abs())
            .sum()
    }

    /// L1 distance between the label distribution of a selected cohort and
    /// the uniform global distribution, in `[0, 2]`. This is the
    /// "cohort skew" input of the surrogate accuracy engine.
    pub fn cohort_divergence(&self, devices: &[usize]) -> f64 {
        let mut counts = vec![0usize; self.num_classes];
        for &d in devices {
            for (c, &k) in self.class_counts(d).iter().enumerate() {
                counts[c] += k as usize;
            }
        }
        let total: usize = counts.iter().sum();
        if total == 0 {
            return 2.0;
        }
        let uniform = 1.0 / self.num_classes as f64;
        counts
            .iter()
            .map(|&k| (k as f64 / total as f64 - uniform).abs())
            .sum()
    }

    /// Fraction of all classes covered by a selected cohort, in `[0, 1]`.
    pub fn cohort_class_coverage(&self, devices: &[usize]) -> f64 {
        let mut present = vec![false; self.num_classes];
        for &d in devices {
            for (c, &k) in self.class_counts(d).iter().enumerate() {
                if k > 0 {
                    present[c] = true;
                }
            }
        }
        present.iter().filter(|&&p| p).count() as f64 / self.num_classes as f64
    }
}

/// Samples a Dirichlet(alpha, ..., alpha) vector into `out` via
/// normalised Gamma draws (the textbook construction), which is
/// numerically robust for the tiny α = 0.1 the paper uses.
fn dirichlet(alpha: f64, rng: &mut impl Rng, out: &mut [f64]) {
    let gamma = Gamma::new(alpha, 1.0).expect("alpha must be positive");
    for d in out.iter_mut() {
        *d = gamma.sample(rng).max(1e-300);
    }
    let z: f64 = out.iter().sum();
    for d in out.iter_mut() {
        *d /= z;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth;
    use autofl_nn::zoo::Workload;
    use proptest::prelude::*;

    fn dataset(n: usize) -> Dataset {
        synth::generate(Workload::TinyTest, n, 11)
    }

    /// The nested-`Vec` construction `Partition::new` replaced, kept as
    /// the model it must equal: every device's samples in a `Vec` of its
    /// own, flattened and histogrammed at the end. Returns the offsets,
    /// indices, counts and non-IID flags.
    fn reference(
        dataset: &Dataset,
        num_devices: usize,
        distribution: DataDistribution,
        seed: u64,
    ) -> (Vec<usize>, Vec<usize>, Vec<usize>, Vec<bool>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let classes = dataset.num_classes();
        let mut by_class: Vec<Vec<usize>> = vec![Vec::new(); classes];
        for (i, &label) in dataset.labels().iter().enumerate() {
            by_class[label].push(i);
        }
        for c in by_class.iter_mut() {
            c.shuffle(&mut rng);
        }
        let (fraction, alpha) = match distribution {
            DataDistribution::IidIdeal => (0.0, PAPER_DIRICHLET_ALPHA),
            DataDistribution::NonIid {
                fraction_non_iid,
                alpha,
            } => (fraction_non_iid, alpha),
        };
        let n_non_iid = (num_devices as f64 * fraction).round() as usize;
        let mut order: Vec<usize> = (0..num_devices).collect();
        order.shuffle(&mut rng);
        let mut non_iid_devices = vec![false; num_devices];
        for &d in order.iter().take(n_non_iid) {
            non_iid_devices[d] = true;
        }
        let iid_devices: Vec<usize> = (0..num_devices).filter(|&d| !non_iid_devices[d]).collect();
        let noniid_devices: Vec<usize> = (0..num_devices).filter(|&d| non_iid_devices[d]).collect();

        let total = dataset.len();
        let quota = total / num_devices;
        let mut per_device: Vec<Vec<usize>> = vec![Vec::new(); num_devices];
        let mut cursors = vec![0usize; classes];
        for &device in &iid_devices {
            let mut class = device % classes.max(1);
            while per_device[device].len() < quota {
                let mut scanned = 0;
                while cursors[class] >= by_class[class].len() && scanned < classes {
                    class = (class + 1) % classes;
                    scanned += 1;
                }
                if cursors[class] >= by_class[class].len() {
                    break;
                }
                per_device[device].push(by_class[class][cursors[class]]);
                cursors[class] += 1;
                class = (class + 1) % classes;
            }
        }
        for &device in &noniid_devices {
            let gamma = Gamma::new(alpha, 1.0).expect("alpha must be positive");
            let mut props: Vec<f64> = (0..classes)
                .map(|_| gamma.sample(&mut rng).max(1e-300))
                .collect();
            let z: f64 = props.iter().sum();
            for p in props.iter_mut() {
                *p /= z;
            }
            while per_device[device].len() < quota {
                let draw: f64 = rng.gen();
                let mut acc = 0.0;
                let mut class = classes - 1;
                for (c, &p) in props.iter().enumerate() {
                    acc += p;
                    if draw <= acc {
                        class = c;
                        break;
                    }
                }
                if cursors[class] >= by_class[class].len() {
                    match (0..classes)
                        .filter(|&c| cursors[c] < by_class[c].len())
                        .max_by_key(|&c| by_class[c].len() - cursors[c])
                    {
                        Some(c) => class = c,
                        None => break,
                    }
                }
                per_device[device].push(by_class[class][cursors[class]]);
                cursors[class] += 1;
            }
        }
        let mut leftovers: Vec<usize> = Vec::new();
        for (c, pool) in by_class.iter().enumerate() {
            leftovers.extend_from_slice(&pool[cursors[c]..]);
        }
        for (j, sample) in leftovers.into_iter().enumerate() {
            per_device[j % num_devices].push(sample);
        }

        let mut offsets = vec![0];
        let mut indices = Vec::new();
        let mut counts = Vec::new();
        for idx in &per_device {
            indices.extend_from_slice(idx);
            offsets.push(indices.len());
            let mut histogram = vec![0usize; classes];
            for &i in idx {
                histogram[dataset.labels()[i]] += 1;
            }
            counts.extend_from_slice(&histogram);
        }
        (offsets, indices, counts, non_iid_devices)
    }

    /// Asserts that `Partition::new` builds exactly the reference's arrays.
    fn assert_matches_reference(
        dataset: &Dataset,
        num_devices: usize,
        distribution: DataDistribution,
        seed: u64,
    ) {
        let p = Partition::new(dataset, num_devices, distribution, seed);
        let (offsets, indices, counts, flags) = reference(dataset, num_devices, distribution, seed);
        let widen = |v: &[u32]| v.iter().map(|&x| x as usize).collect::<Vec<_>>();
        assert_eq!(p.offsets, offsets, "offsets");
        assert_eq!(widen(&p.indices), indices, "indices");
        assert_eq!(widen(&p.counts), counts, "counts");
        assert_eq!(p.non_iid_devices, flags, "non-IID flags");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Fleets of every shape, with and without a remainder, on
        /// balanced labels (TinyTest, CNN) and on LSTM's skewed ones,
        /// which exhaust pools and reach the non-IID fallback.
        #[test]
        fn partition_matches_the_nested_reference(
            devices in 1usize..=300,
            per_device in 1usize..=40,
            remainder in 0usize..300,
            workload in 0usize..3,
            non_iid in proptest::bool::ANY,
            fraction in 0.0f64..=1.0,
            alpha in 0usize..3,
            seed in 0u64..u64::MAX,
        ) {
            let workload = [Workload::TinyTest, Workload::CnnMnist, Workload::LstmShakespeare]
                [workload];
            let total = devices * per_device + remainder % devices;
            let labels = synth::generate_labels(workload, total, seed);
            let distribution = if non_iid {
                DataDistribution::NonIid {
                    fraction_non_iid: fraction,
                    alpha: [0.1, 1.0, 10.0][alpha],
                }
            } else {
                DataDistribution::IidIdeal
            };
            assert_matches_reference(&labels, devices, distribution, seed);
        }
    }

    #[test]
    fn more_devices_than_samples_leaves_a_zero_quota() {
        let labels = synth::generate_labels(Workload::CnnMnist, 30, 12);
        for distribution in [
            DataDistribution::IidIdeal,
            DataDistribution::non_iid_percent(50),
        ] {
            assert_matches_reference(&labels, 50, distribution, 13);
            let p = Partition::new(&labels, 50, distribution, 13);
            assert!((0..50).all(|d| p.device_sample_count(d) == usize::from(d < 30)));
        }
    }

    #[test]
    fn iid_partition_covers_all_samples_once() {
        let d = dataset(120);
        let p = Partition::new(&d, 10, DataDistribution::IidIdeal, 1);
        let mut seen = vec![false; d.len()];
        for dev in 0..10 {
            for &i in p.device_indices(dev) {
                let i = i as usize;
                assert!(!seen[i], "sample {} assigned twice", i);
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "some samples unassigned");
    }

    #[test]
    fn iid_devices_see_every_class() {
        let d = dataset(160);
        let p = Partition::new(&d, 8, DataDistribution::IidIdeal, 2);
        for dev in 0..8 {
            assert_eq!(p.num_classes_present(dev), d.num_classes());
            assert!(!p.is_non_iid(dev));
        }
    }

    #[test]
    fn non_iid_devices_are_concentrated() {
        let d = dataset(4000);
        let p = Partition::new(&d, 20, DataDistribution::non_iid_percent(100), 3);
        // With alpha = 0.1, most devices should miss at least one class.
        let missing = (0..20)
            .filter(|&dev| p.num_classes_present(dev) < d.num_classes())
            .count();
        assert!(missing >= 15, "only {} of 20 devices concentrated", missing);
    }

    #[test]
    fn non_iid_percent_marks_expected_count() {
        let d = dataset(400);
        let p = Partition::new(&d, 40, DataDistribution::non_iid_percent(50), 4);
        let marked = (0..40).filter(|&dev| p.is_non_iid(dev)).count();
        assert_eq!(marked, 20);
    }

    #[test]
    fn cohort_divergence_zero_for_uniform() {
        let d = dataset(400);
        let p = Partition::new(&d, 10, DataDistribution::IidIdeal, 5);
        let all: Vec<usize> = (0..10).collect();
        assert!(p.cohort_divergence(&all) < 0.05);
        assert!((p.cohort_class_coverage(&all) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cohort_divergence_high_for_concentrated_cohort() {
        let d = dataset(4000);
        let p = Partition::new(&d, 20, DataDistribution::non_iid_percent(100), 6);
        // Pick the single most skewed device.
        let worst = (0..20)
            .min_by_key(|&dev| p.num_classes_present(dev))
            .unwrap();
        assert!(p.cohort_divergence(&[worst]) > 0.5);
    }

    #[test]
    fn partition_is_deterministic() {
        let d = dataset(200);
        let a = Partition::new(&d, 10, DataDistribution::non_iid_percent(75), 7);
        let b = Partition::new(&d, 10, DataDistribution::non_iid_percent(75), 7);
        for dev in 0..10 {
            assert_eq!(a.device_indices(dev), b.device_indices(dev));
        }
    }
}
