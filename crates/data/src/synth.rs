//! Procedural dataset generators standing in for MNIST, Shakespeare and
//! ImageNet.
//!
//! The substitution rationale (see DESIGN.md): the reproduction needs
//! datasets whose *label structure* matches the originals — 10-class
//! images, 65-symbol character prediction, many-class images — so that IID
//! vs Dirichlet non-IID partitioning produces the paper's convergence
//! dynamics. Class-conditional generators with smooth per-class prototypes
//! plus noise give linearly-nontrivial but learnable tasks.

use crate::dataset::Dataset;
use autofl_nn::zoo::{Workload, SHAKESPEARE_SEQ_LEN, SHAKESPEARE_VOCAB};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Generates `n` samples of the given workload's input distribution
/// (sample stream 0).
///
/// Deterministic in `seed`. Labels are balanced across classes.
pub fn generate(workload: Workload, n: usize, seed: u64) -> Dataset {
    generate_stream(workload, n, seed, 0)
}

/// Generates `n` samples from an independent sample `stream` while keeping
/// the class structure (image prototypes / Markov chain) tied to `seed`.
///
/// Train and test sets must share `seed` but use different streams so they
/// are disjoint draws from the *same* underlying task.
pub fn generate_stream(workload: Workload, n: usize, seed: u64, stream: u64) -> Dataset {
    let sample_seed = stream_seed(seed, stream);
    match workload {
        Workload::LstmShakespeare => generate_chars(n, seed, sample_seed, true),
        _ => generate_images(workload, n, seed, sample_seed),
    }
}

/// Generates only the *labels* of [`generate`]'s samples — bit-identical
/// to `generate(workload, n, seed).labels()` — as a labels-only
/// [`Dataset`] holding no feature storage.
///
/// Surrogate-fidelity simulations run on partition statistics alone;
/// this entry point gives them the exact same label sequence (image
/// labels are balanced round-robin, character labels replay the Markov
/// chain) without synthesising a single pixel, which is what makes
/// million-device fleets fit in memory.
pub fn generate_labels(workload: Workload, n: usize, seed: u64) -> Dataset {
    generate_stream_labels(workload, n, seed, 0)
}

/// Labels-only counterpart of [`generate_stream`].
pub fn generate_stream_labels(workload: Workload, n: usize, seed: u64, stream: u64) -> Dataset {
    let sample_seed = stream_seed(seed, stream);
    match workload {
        Workload::LstmShakespeare => generate_chars(n, seed, sample_seed, false),
        _ => {
            let classes = workload.num_classes();
            let mut labels = Vec::with_capacity(n);
            while labels.len() < n {
                labels.extend(0..classes.min(n - labels.len()));
            }
            Dataset::labels_only(labels, workload.input_shape(), classes)
        }
    }
}

fn stream_seed(seed: u64, stream: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
}

/// Class-conditional image generator for the CNN / MobileNet / tiny
/// workloads.
///
/// Each class has a smooth random prototype image; samples are the
/// prototype plus Gaussian pixel noise and a random ±1-pixel translation,
/// mimicking the intra-class variation of handwritten digits.
fn generate_images(workload: Workload, n: usize, seed: u64, sample_seed: u64) -> Dataset {
    let shape = workload.input_shape();
    let classes = workload.num_classes();
    let (c, h, w) = (shape[0], shape[1], shape[2]);
    let per = c * h * w;
    // Prototype RNG is keyed on `seed` only, so every stream (train, test)
    // of the same task shares class prototypes.
    let mut proto_rng = SmallRng::seed_from_u64(seed ^ 0x5eed_0fc1_a55e_50aa);
    let prototypes: Vec<Vec<f32>> = (0..classes)
        .map(|_| smooth_pattern(c, h, w, &mut proto_rng))
        .collect();

    let mut rng = SmallRng::seed_from_u64(sample_seed);
    let mut xs = Vec::with_capacity(n * per);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let label = i % classes;
        let (dy, dx) = (rng.gen_range(-1i32..=1), rng.gen_range(-1i32..=1));
        for ch in 0..c {
            for y in 0..h {
                for x in 0..w {
                    let sy = (y as i32 + dy).clamp(0, h as i32 - 1) as usize;
                    let sx = (x as i32 + dx).clamp(0, w as i32 - 1) as usize;
                    let base = prototypes[label][(ch * h + sy) * w + sx];
                    xs.push(base + rng.gen_range(-0.25..0.25));
                }
            }
        }
        labels.push(label);
    }
    Dataset::new(xs, labels, shape, classes)
}

/// A smooth random pattern in `[-1, 1]`: a sum of a few random 2-D cosine
/// waves per channel, which keeps nearby pixels correlated (like strokes).
fn smooth_pattern(c: usize, h: usize, w: usize, rng: &mut impl Rng) -> Vec<f32> {
    let mut img = vec![0.0f32; c * h * w];
    for ch in 0..c {
        let waves: Vec<(f32, f32, f32, f32)> = (0..4)
            .map(|_| {
                (
                    rng.gen_range(0.5..3.0),
                    rng.gen_range(0.5..3.0),
                    rng.gen_range(0.0..std::f32::consts::TAU),
                    rng.gen_range(0.4..1.0),
                )
            })
            .collect();
        for y in 0..h {
            for x in 0..w {
                let mut v = 0.0;
                for &(fy, fx, phase, amp) in &waves {
                    v += amp
                        * ((fy * y as f32 / h as f32 + fx * x as f32 / w as f32)
                            * std::f32::consts::TAU
                            + phase)
                            .cos();
                }
                img[(ch * h + y) * w + x] = (v / 2.0).clamp(-1.0, 1.0);
            }
        }
    }
    img
}

/// Character-sequence generator standing in for Shakespeare.
///
/// Text is drawn from a seeded order-1 Markov chain over
/// [`SHAKESPEARE_VOCAB`] symbols whose transition rows are sparse (each
/// symbol has a handful of likely successors), which is what makes
/// next-character prediction learnable. The *label* of a sample is the
/// character following the sequence, so label-based non-IID partitioning
/// maps onto "different devices see different character distributions" —
/// the Shakespeare-by-speaker effect.
///
/// `want_xs = false` replays the identical chain (same RNG draws, same
/// labels) without storing the token sequences, producing a labels-only
/// dataset.
fn generate_chars(n: usize, seed: u64, sample_seed: u64, want_xs: bool) -> Dataset {
    let vocab = SHAKESPEARE_VOCAB;
    let seq = SHAKESPEARE_SEQ_LEN;
    // The Markov chain (the "language") is keyed on `seed` only.
    let mut chain_rng = SmallRng::seed_from_u64(seed ^ 0xC0FFEE);
    // Sparse stochastic transition matrix.
    let mut trans = vec![vec![0.0f32; vocab]; vocab];
    for row in trans.iter_mut() {
        let successors = 4;
        let mut weights = vec![0.01f32; vocab];
        for _ in 0..successors {
            weights[chain_rng.gen_range(0..vocab)] += 1.0;
        }
        let z: f32 = weights.iter().sum();
        for w in weights.iter_mut() {
            *w /= z;
        }
        *row = weights;
    }

    let mut rng = SmallRng::seed_from_u64(sample_seed);
    let mut xs = Vec::with_capacity(if want_xs { n * seq } else { 0 });
    let mut labels = Vec::with_capacity(n);
    let mut state = rng.gen_range(0..vocab);
    let sample_next = |state: usize, rng: &mut SmallRng, trans: &Vec<Vec<f32>>| -> usize {
        let r: f32 = rng.gen();
        let mut acc = 0.0;
        for (j, &p) in trans[state].iter().enumerate() {
            acc += p;
            if r <= acc {
                return j;
            }
        }
        vocab - 1
    };
    for _ in 0..n {
        for _ in 0..seq {
            if want_xs {
                xs.push(state as f32);
            }
            state = sample_next(state, &mut rng, &trans);
        }
        labels.push(state); // the next character is the label
        state = sample_next(state, &mut rng, &trans);
    }
    if want_xs {
        Dataset::new(xs, labels, vec![seq], vocab)
    } else {
        Dataset::labels_only(labels, vec![seq], vocab)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn image_datasets_have_expected_shape_and_balance() {
        let d = generate(Workload::CnnMnist, 100, 3);
        assert_eq!(d.len(), 100);
        assert_eq!(d.sample_shape(), &[1, 14, 14]);
        let mut h = [0usize; 10];
        for &label in d.labels() {
            h[label] += 1;
        }
        assert!(h.iter().all(|&c| c == 10), "histogram {:?}", h);
    }

    #[test]
    fn char_dataset_tokens_in_vocab() {
        let d = generate(Workload::LstmShakespeare, 50, 4);
        assert_eq!(d.sample_shape(), &[SHAKESPEARE_SEQ_LEN]);
        let (x, y) = d.batch(&(0..50).collect::<Vec<_>>());
        assert!(x
            .data()
            .iter()
            .all(|&t| t >= 0.0 && (t as usize) < SHAKESPEARE_VOCAB));
        assert!(y.iter().all(|&l| l < SHAKESPEARE_VOCAB));
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(Workload::TinyTest, 20, 7);
        let b = generate(Workload::TinyTest, 20, 7);
        let (xa, _) = a.batch(&[0, 5]);
        let (xb, _) = b.batch(&[0, 5]);
        assert_eq!(xa.data(), xb.data());
    }

    #[test]
    fn different_classes_have_different_prototypes() {
        let d = generate(Workload::TinyTest, 8, 9);
        let (x0, _) = d.batch(&[0]);
        let (x1, _) = d.batch(&[1]);
        let dist: f32 = x0
            .data()
            .iter()
            .zip(x1.data().iter())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(dist > 1.0, "classes look identical, L1 = {}", dist);
    }
}
