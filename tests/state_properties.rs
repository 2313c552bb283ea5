//! Property-based tests on the cross-crate invariants.

use autofl_data::partition::{DataDistribution, Partition};
use autofl_data::synth;
use autofl_device::cost::{execute, ExecutionPlan, TrainingTask};
use autofl_device::dvfs::{DvfsTable, ExecutionTarget};
use autofl_device::scenario::DeviceConditions;
use autofl_device::tier::DeviceTier;
use autofl_nn::zoo::Workload;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every partition assigns every sample exactly once, for any device
    /// count, non-IID fraction and seed.
    #[test]
    fn partition_is_a_permutation(
        devices in 1usize..30,
        percent in 0u32..=100,
        seed in 0u64..1000,
    ) {
        let data = synth::generate(Workload::TinyTest, 240, 7);
        let dist = if percent == 0 {
            DataDistribution::IidIdeal
        } else {
            DataDistribution::non_iid_percent(percent)
        };
        let p = Partition::new(&data, devices, dist, seed);
        let mut seen = vec![false; data.len()];
        for d in 0..devices {
            for &i in p.device_indices(d) {
                let i = i as usize;
                prop_assert!(!seen[i], "sample {} assigned twice", i);
                seen[i] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    /// Cohort divergence and coverage stay in their documented ranges.
    #[test]
    fn cohort_stats_are_bounded(
        devices in 2usize..20,
        seed in 0u64..500,
    ) {
        let data = synth::generate(Workload::TinyTest, 200, 11);
        let p = Partition::new(&data, devices, DataDistribution::non_iid_percent(100), seed);
        let cohort: Vec<usize> = (0..devices).collect();
        let div = p.cohort_divergence(&cohort);
        let cov = p.cohort_class_coverage(&cohort);
        prop_assert!((0.0..=2.0).contains(&div));
        prop_assert!((0.0..=1.0).contains(&cov));
        for d in 0..devices {
            prop_assert!((0.0..=2.0).contains(&p.device_divergence(d)));
        }
    }

    /// Energy and time are positive and monotone in work, for any plan.
    #[test]
    fn cost_model_is_positive_and_monotone(
        flops in 1u64..1_000_000_000_000,
        step_frac in 0.01f64..=1.0,
        gpu in proptest::bool::ANY,
    ) {
        let tier = DeviceTier::Mid;
        let target = if gpu { ExecutionTarget::Gpu } else { ExecutionTarget::Cpu };
        let table = DvfsTable::for_tier(tier, target);
        let plan = ExecutionPlan::at_step(target, table.step_at_fraction(step_frac));
        let c = DeviceConditions::ideal();
        let small = execute(tier, plan, TrainingTask { flops, upload_bytes: 1000 }, &c);
        let large = execute(tier, plan, TrainingTask { flops: flops * 2, upload_bytes: 1000 }, &c);
        prop_assert!(small.compute_time_s > 0.0);
        prop_assert!(small.total_energy_j() > 0.0);
        prop_assert!(large.compute_time_s > small.compute_time_s);
        prop_assert!(large.compute_energy_j > small.compute_energy_j);
    }

    /// DVFS tables: frequency, power, and throughput are monotone in the
    /// step index for every tier/target.
    #[test]
    fn dvfs_tables_are_monotone(tier_idx in 0usize..3, gpu in proptest::bool::ANY) {
        let tier = DeviceTier::all()[tier_idx];
        let target = if gpu { ExecutionTarget::Gpu } else { ExecutionTarget::Cpu };
        let t = DvfsTable::for_tier(tier, target);
        for s in 1..t.num_steps() {
            prop_assert!(t.freq_ghz(s) < t.freq_ghz(s + 1));
            prop_assert!(t.busy_power_w(s) < t.busy_power_w(s + 1));
            prop_assert!(t.gflops(s) < t.gflops(s + 1));
        }
    }

    /// Model parameter vectors round-trip for every workload and seed.
    #[test]
    fn param_vector_round_trips(seed in 0u64..100) {
        for w in [Workload::TinyTest, Workload::LstmShakespeare] {
            let mut m = w.build_trainable(seed);
            let v = m.param_vector();
            let doubled: Vec<f32> = v.iter().map(|x| x * 0.5).collect();
            m.set_param_vector(&doubled);
            prop_assert_eq!(m.param_vector(), doubled);
        }
    }
}
