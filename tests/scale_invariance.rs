//! Scale-invariance contracts of the sharded simulator.
//!
//! The `shards` knob restructures the per-device stores and the
//! aggregation tree; `AUTOFL_THREADS` restructures scheduling. Neither
//! may ever change a result. This suite pins that end to end:
//!
//! * hierarchical FedAvg/FedNova aggregation is bit-equal to the flat
//!   path for *random* shard counts (property test over random cohorts),
//! * a 10k-device smoke run — fleet dynamics, churn, runtime variance —
//!   is bit-identical across shards ∈ {1, 4, 16} × threads ∈ {1, 4}
//!   for random, cluster and oracle policies (and a 1k-device run for
//!   the AutoFL controller's top-K cut),
//! * the labels-only surrogate data path produces the same partition
//!   statistics as the full generator,
//! * a record's participant list is cohort-sized, not a fleet-sized
//!   buffer a selector cut its cohort from.

use autofl::fed::algorithms::{AggregationAlgorithm, ClientUpdate, ExactF32Sum};
use autofl::fed::engine::{SimConfig, SimResult, Simulation};
use autofl::fed::fleet::FleetDynamics;
use autofl::fed::policy::run_policy;
use autofl::fed::runtime::AsyncRuntime;
use autofl::standard_registry;
use autofl_data::partition::DataDistribution;
use autofl_data::FlData;
use autofl_device::scenario::VarianceScenario;
use autofl_nn::tensor::Tensor;
use autofl_nn::zoo::Workload;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Runs `f` with `AUTOFL_THREADS` pinned, restoring the previous value.
fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    let prev = std::env::var("AUTOFL_THREADS").ok();
    std::env::set_var("AUTOFL_THREADS", threads.to_string());
    rayon::refresh_thread_count();
    let result = f();
    match prev {
        Some(v) => std::env::set_var("AUTOFL_THREADS", v),
        None => std::env::remove_var("AUTOFL_THREADS"),
    }
    rayon::refresh_thread_count();
    result
}

fn assert_bit_identical(a: &SimResult, b: &SimResult, label: &str) {
    assert_eq!(a.records.len(), b.records.len(), "{label}: round counts");
    for (ra, rb) in a.records.iter().zip(b.records.iter()) {
        assert_eq!(ra.participants, rb.participants, "{label} r{}", ra.round);
        assert_eq!(ra.plans, rb.plans, "{label} r{}", ra.round);
        assert_eq!(ra.dropped, rb.dropped, "{label} r{}", ra.round);
        assert_eq!(ra.dropouts, rb.dropouts, "{label} r{}", ra.round);
        assert_eq!(ra.ineligible, rb.ineligible, "{label} r{}", ra.round);
        assert_eq!(ra.accuracy.to_bits(), rb.accuracy.to_bits(), "{label}");
        assert_eq!(
            ra.active_energy_j.to_bits(),
            rb.active_energy_j.to_bits(),
            "{label}"
        );
        assert_eq!(
            ra.idle_energy_j.to_bits(),
            rb.idle_energy_j.to_bits(),
            "{label}"
        );
        assert_eq!(
            ra.round_time_s.to_bits(),
            rb.round_time_s.to_bits(),
            "{label}"
        );
        assert_eq!(
            ra.logical_time_s.to_bits(),
            rb.logical_time_s.to_bits(),
            "{label}"
        );
        assert_eq!(
            ra.mean_staleness.to_bits(),
            rb.mean_staleness.to_bits(),
            "{label}"
        );
    }
}

/// A 10k-device configuration with every scale feature active: sharded
/// stores, fleet dynamics (battery, churn, dropout), runtime variance.
fn scale_config(shards: usize) -> SimConfig {
    Simulation::builder(Workload::CnnMnist)
        .devices(10_000)
        .shards(shards)
        .samples_per_device(8)
        .test_samples(64)
        .scenario(VarianceScenario::realistic())
        .fleet_dynamics(FleetDynamics::with_dropout_rate(0.25))
        .max_rounds(5)
        .target_accuracy(1.1)
        .seed(1301)
        .build_config()
        .expect("scale config is valid")
}

#[test]
fn ten_k_device_run_is_bit_identical_across_shards_and_threads() {
    let registry = standard_registry();
    for name in ["FedAvg-Random", "C3", "O_FL"] {
        let policy = registry.expect(name);
        let base = with_threads(1, || run_policy(&scale_config(1), policy));
        let dropouts: usize = base.records.iter().map(|r| r.dropouts.len()).sum();
        assert!(dropouts > 0, "{name}: churn must actually drop devices");
        for shards in [1, 4, 16] {
            for threads in [1, 4] {
                if (shards, threads) == (1, 1) {
                    continue;
                }
                let other = with_threads(threads, || run_policy(&scale_config(shards), policy));
                assert_bit_identical(&base, &other, &format!("{name} s{shards} t{threads}"));
            }
        }
    }
}

#[test]
fn records_do_not_keep_the_fleet_sized_selection_buffer() {
    // Random shuffles every eligible id and truncates to K; AutoFL cuts
    // its top K out of a ranking of the eligible fleet. Sweeps and spec
    // runs hold every record, so each must own only its cohort.
    let registry = standard_registry();
    for name in ["FedAvg-Random", "AutoFL"] {
        let result = run_policy(&scale_config(1), registry.expect(name));
        assert!(!result.records.is_empty());
        for record in &result.records {
            let ids = &record.participants;
            assert!(
                ids.capacity() <= ids.len() + 8,
                "{name} round {}: {} ids held in a Vec of capacity {}",
                record.round,
                ids.len(),
                ids.capacity()
            );
        }
    }
}

#[test]
fn hundred_k_device_async_run_is_bit_identical_across_shards_and_threads() {
    // The full digest matrix at the next fleet-size decade: 100k devices
    // with fleet dynamics AND the event-driven runtime (a 3-deep buffered
    // pipeline, so staleness weighting and out-of-order completion are
    // live) at AUTOFL_THREADS ∈ {1, 2, 4} × shards ∈ {1, 4, 16}.
    let config = |shards: usize| {
        Simulation::builder(Workload::CnnMnist)
            .devices(100_000)
            .shards(shards)
            .samples_per_device(4)
            .test_samples(32)
            .scenario(VarianceScenario::realistic())
            .fleet_dynamics(FleetDynamics::with_dropout_rate(0.25))
            .runtime(AsyncRuntime::buffered(8, 0.5).concurrent_cohorts(3))
            .max_rounds(3)
            .target_accuracy(1.1)
            .seed(1701)
            .build_config()
            .expect("100k async scale config is valid")
    };
    let policy = standard_registry();
    let policy = policy.expect("FedAvg-Random");
    let base = with_threads(1, || run_policy(&config(1), policy));
    let dropouts: usize = base.records.iter().map(|r| r.dropouts.len()).sum();
    assert!(dropouts > 0, "churn must actually drop devices");
    assert!(
        base.records.iter().any(|r| r.mean_staleness > 0.0),
        "the buffered pipeline must produce stale updates"
    );
    for shards in [1, 4, 16] {
        for threads in [1, 2, 4] {
            if (shards, threads) == (1, 1) {
                continue;
            }
            let other = with_threads(threads, || run_policy(&config(shards), policy));
            assert_bit_identical(&base, &other, &format!("100k async s{shards} t{threads}"));
        }
    }
}

#[test]
fn autofl_controller_is_bit_identical_across_shards_and_threads() {
    // The controller's Q-value top-K cut and availability binning at a
    // smaller fleet (per-device Q-tables at 10k devices would dominate
    // the suite's runtime without testing anything extra).
    let registry = standard_registry();
    let policy = registry.expect("AutoFL");
    let config = |shards: usize| {
        Simulation::builder(Workload::CnnMnist)
            .devices(1_000)
            .shards(shards)
            .samples_per_device(8)
            .test_samples(64)
            .scenario(VarianceScenario::realistic())
            .fleet_dynamics(FleetDynamics::with_dropout_rate(0.25))
            .max_rounds(5)
            .target_accuracy(1.1)
            .seed(7)
            .build_config()
            .expect("autofl scale config is valid")
    };
    let base = with_threads(1, || run_policy(&config(1), policy));
    for shards in [4, 16] {
        for threads in [1, 4] {
            let other = with_threads(threads, || run_policy(&config(shards), policy));
            assert_bit_identical(&base, &other, &format!("AutoFL s{shards} t{threads}"));
        }
    }
}

#[test]
fn stats_only_data_matches_the_full_generator_partition() {
    for workload in [
        Workload::TinyTest,
        Workload::CnnMnist,
        Workload::LstmShakespeare,
    ] {
        for distribution in [
            DataDistribution::IidIdeal,
            DataDistribution::non_iid_percent(60),
        ] {
            let full = FlData::generate(workload, 24, 20, 32, distribution, 9);
            let stats = FlData::generate_stats_only(workload, 24, 20, 32, distribution, 9);
            assert_eq!(full.train.labels(), stats.train.labels(), "{workload:?}");
            assert_eq!(full.test.labels(), stats.test.labels(), "{workload:?}");
            assert!(!stats.train.has_features(), "{workload:?} stores pixels");
            for d in 0..24 {
                assert_eq!(
                    full.partition.device_indices(d),
                    stats.partition.device_indices(d),
                    "{workload:?} device {d}"
                );
                assert_eq!(
                    full.partition.class_counts(d),
                    stats.partition.class_counts(d),
                    "{workload:?} device {d}"
                );
                assert_eq!(
                    full.partition.is_non_iid(d),
                    stats.partition.is_non_iid(d),
                    "{workload:?} device {d}"
                );
            }
        }
    }
}

/// Reference ikj product with ascending-k accumulation and the SIMD
/// kernels' sparse-skip rule — the exact FP addition order the lane-width
/// kernels must reproduce bit for bit, at *any* shape.
fn scalar_matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let n = b.shape()[1];
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for kk in 0..k {
            let av = a.data()[i * k + kk];
            if av == 0.0 {
                continue;
            }
            for j in 0..n {
                out[i * n + j] += av * b.data()[kk * n + j];
            }
        }
    }
    Tensor::from_vec(vec![m, n], out)
}

fn random_tensor(rng: &mut SmallRng, shape: Vec<usize>) -> Tensor {
    let len = shape.iter().product();
    Tensor::from_vec(
        shape,
        (0..len)
            .map(|_| {
                // A sprinkle of exact zeros exercises the sparse-skip rule.
                if rng.gen_bool(0.1) {
                    0.0
                } else {
                    rng.gen::<f32>() - 0.5
                }
            })
            .collect(),
    )
}

fn assert_tensor_bits_equal(a: &Tensor, b: &Tensor, label: &str) {
    assert_eq!(a.shape(), b.shape(), "{label}");
    for (x, y) in a.data().iter().zip(b.data()) {
        assert_eq!(x.to_bits(), y.to_bits(), "{label}: {x} vs {y}");
    }
}

fn random_updates(rng: &mut SmallRng, k: usize, params: usize) -> Vec<ClientUpdate> {
    (0..k)
        .map(|_| ClientUpdate {
            delta: (0..params)
                .map(|_| {
                    // Wildly mixed magnitudes: exactly the regime where
                    // float addition order matters most.
                    let magnitude = 10f64.powi(rng.gen_range(-25i32..25));
                    ((rng.gen::<f64>() - 0.5) * magnitude) as f32
                })
                .collect(),
            num_samples: rng.gen_range(1usize..500),
            local_steps: rng.gen_range(1usize..40),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Hierarchical FedAvg == flat FedAvg, bit for bit, for random
    /// cohorts and random shard counts (and the same for FedNova's
    /// step-normalised weighting).
    #[test]
    fn hierarchical_aggregation_is_bit_equal_to_flat(
        seed in 0u64..1_000_000,
        k in 1usize..30,
        params in 1usize..40,
        shards_a in 1usize..50,
        shards_b in 1usize..50,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let updates = random_updates(&mut rng, k, params);
        for algorithm in [AggregationAlgorithm::FedAvg, AggregationAlgorithm::FedNova] {
            let mut flat = vec![0.1f32; params];
            algorithm.aggregate(&mut flat, &updates);
            for shards in [shards_a, shards_b] {
                let mut sharded = vec![0.1f32; params];
                algorithm.aggregate_sharded(&mut sharded, &updates, shards);
                let flat_bits: Vec<u32> = flat.iter().map(|v| v.to_bits()).collect();
                let sharded_bits: Vec<u32> = sharded.iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(
                    &flat_bits,
                    &sharded_bits,
                    "{} diverged at {} shards",
                    algorithm.name(),
                    shards
                );
            }
        }
    }

    /// The SIMD matmul trio (`matmul`, `matmul_tn`, `matmul_nt`) is
    /// bit-equal to the scalar ascending-k reference at arbitrary odd
    /// shapes — ranges chosen so tails not divisible by the f32x8 lane
    /// width (and sub-lane-width dimensions) dominate the cases.
    #[test]
    fn simd_matmul_trio_is_bit_equal_to_scalar_at_odd_shapes(
        seed in 0u64..1_000_000,
        m in 1usize..30,
        k in 1usize..30,
        n in 1usize..30,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let a = random_tensor(&mut rng, vec![m, k]);
        let b = random_tensor(&mut rng, vec![k, n]);
        let expect = scalar_matmul(&a, &b);
        assert_tensor_bits_equal(&a.matmul(&b), &expect, "matmul");
        let at = a.transpose();
        assert_tensor_bits_equal(&at.matmul_tn(&b), &expect, "matmul_tn");
        let bt = b.transpose();
        assert_tensor_bits_equal(&a.matmul_nt(&bt), &expect, "matmul_nt");
    }

    /// The exact accumulator is invariant to summation order and
    /// grouping for arbitrary finite f32 terms.
    #[test]
    fn exact_sum_is_permutation_invariant(
        seed in 0u64..1_000_000,
        n in 1usize..200,
        split in 0usize..200,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let terms: Vec<f32> = (0..n)
            .map(|_| {
                let magnitude = 10f64.powi(rng.gen_range(-40i32..38));
                ((rng.gen::<f64>() - 0.5) * magnitude) as f32
            })
            .collect();
        let mut forward = ExactF32Sum::default();
        for &t in &terms {
            forward.add(t);
        }
        let mut reverse = ExactF32Sum::default();
        for &t in terms.iter().rev() {
            reverse.add(t);
        }
        prop_assert_eq!(forward, reverse);
        // Split into two partials at an arbitrary point and merge.
        let cut = split % n;
        let mut head = ExactF32Sum::default();
        let mut tail = ExactF32Sum::default();
        for &t in &terms[..cut] {
            head.add(t);
        }
        for &t in &terms[cut..] {
            tail.add(t);
        }
        head.merge(&tail);
        prop_assert_eq!(head, forward);
        prop_assert_eq!(head.to_f64().to_bits(), forward.to_f64().to_bits());
    }
}
