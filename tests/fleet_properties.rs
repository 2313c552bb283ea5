//! Property tests for the fleet-dynamics subsystem (proptest shim):
//! state-of-charge and throttle invariants, bit-exact survivor weights,
//! and the dropout set's subset/determinism contract.

use autofl::fed::engine::{SimConfig, Simulation};
use autofl::fed::fleet::{survivor_weights, FleetDynamics, FleetStore, StragglerPolicy};
use autofl::fed::selection::RandomSelector;
use autofl_device::cost::{execute, ExecutionPlan, TrainingTask};
use autofl_device::fleet::Fleet;
use autofl_device::scenario::DeviceConditions;
use autofl_device::tier::DeviceTier;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn dropout_config(seed: u64, rate: f64) -> SimConfig {
    let mut cfg = SimConfig::tiny_test(seed);
    cfg.max_rounds = 6;
    cfg.target_accuracy = Some(1.1);
    cfg.fleet = Some(FleetDynamics::with_dropout_rate(rate));
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// State of charge and throttle stay in [0, 1] under arbitrary churn
    /// knobs, round lengths and participation patterns.
    #[test]
    fn soc_and_throttle_stay_in_unit_interval(
        seed in 0u64..1_000_000,
        charge_rate in 0.0f64..0.01,
        drain in 0.0f64..0.01,
        heat in 0.0f64..0.05,
        capacity_scale in 0.001f64..2.0,
        round_time in 1.0f64..500.0,
    ) {
        let config = FleetDynamics {
            charge_rate_per_s: charge_rate,
            idle_drain_per_s: drain,
            heat_per_s: heat,
            battery_capacity_scale: capacity_scale,
            ..FleetDynamics::realistic()
        };
        let fleet = Fleet::custom(&[(DeviceTier::Mid, 6), (DeviceTier::Low, 6)], seed);
        let shards = 1 + (seed as usize % 5);
        let mut state = FleetStore::new(&config, &fleet, seed, shards);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xcafe);
        for round in 0..30 {
            state.begin_round(&config, &fleet, round);
            prop_assert!(
                (0..fleet.len()).all(|i| (0.0..=1.0).contains(&state.availability(i).soc))
            );
            // A random subset trains with a random (possibly huge) energy.
            let participants: Vec<_> = fleet
                .ids()
                .into_iter()
                .filter(|_| rng.gen_bool(0.4))
                .collect();
            let busy: Vec<f64> = participants.iter().map(|_| rng.gen_range(0.0..round_time)).collect();
            let energy: Vec<f64> = participants.iter().map(|_| rng.gen_range(0.0..100_000.0)).collect();
            state.end_round(&config, &fleet, round_time, &participants, &busy, &energy);
            for device in (0..fleet.len()).map(|i| state.availability(i)) {
                prop_assert!((0.0..=1.0).contains(&device.soc), "soc {}", device.soc);
                prop_assert!(
                    (0.0..=1.0).contains(&device.throttle),
                    "throttle {}",
                    device.throttle
                );
            }
        }
    }

    /// Thermal throttling never increases the effective frequency: any
    /// hotter device computes no faster than a cooler one, and a cool
    /// device matches the static model exactly.
    #[test]
    fn throttle_never_increases_effective_frequency(
        t_lo in 0.0f64..1.0,
        gap in 0.0f64..1.0,
        flops in 1_000_000u64..100_000_000_000,
    ) {
        let t_hi = (t_lo + gap).min(1.0);
        let task = TrainingTask { flops, upload_bytes: 1_000_000 };
        for tier in DeviceTier::all() {
            let plan = ExecutionPlan::cpu_max(tier);
            let at = |throttle: f64| {
                execute(tier, plan, task, &DeviceConditions { throttle, ..DeviceConditions::ideal() })
            };
            prop_assert!(at(t_hi).compute_time_s >= at(t_lo).compute_time_s);
            prop_assert!(at(t_lo).compute_time_s >= at(0.0).compute_time_s);
            prop_assert_eq!(
                at(0.0).compute_time_s.to_bits(),
                execute(tier, plan, task, &DeviceConditions::ideal()).compute_time_s.to_bits()
            );
        }
    }

    /// Survivor weights in partial aggregation are non-negative,
    /// proportional to effective sample mass, and sum to exactly 1.0.
    #[test]
    fn survivor_weights_sum_to_one_bit_exact(
        seed in 0u64..1_000_000,
        n in 1usize..40,
        scale in 0.01f64..1e6,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let effective: Vec<f64> = (0..n).map(|_| rng.gen_range(0.05..1000.0) * scale).collect();
        let w = survivor_weights(&effective);
        prop_assert_eq!(w.len(), n);
        prop_assert!(w.iter().all(|x| *x >= 0.0));
        let sum: f64 = w.iter().sum();
        prop_assert_eq!(sum.to_bits(), 1.0f64.to_bits(), "sum {} of {:?}", sum, w);
        // Proportionality (up to the last-element remainder absorption).
        if n >= 2 {
            let ratio = w[0] / w[1];
            let expected = effective[0] / effective[1];
            prop_assert!((ratio - expected).abs() <= 1e-9 * expected.max(1.0));
        }
    }

    /// The dropout set is always a subset of the selection, disjoint from
    /// the straggler set, and bit-deterministic per seed.
    #[test]
    fn dropout_set_is_a_deterministic_subset_of_the_selection(
        seed in 0u64..1_000_000,
        rate in 0.05f64..0.8,
    ) {
        let run = || Simulation::new(dropout_config(seed, rate)).run(&mut RandomSelector::new()).records;
        let a = run();
        let b = run();
        for (ra, rb) in a.iter().zip(&b) {
            prop_assert_eq!(&ra.participants, &rb.participants);
            prop_assert_eq!(&ra.dropouts, &rb.dropouts);
            prop_assert_eq!(&ra.dropped, &rb.dropped);
            prop_assert_eq!(ra.accuracy.to_bits(), rb.accuracy.to_bits());
            for id in &ra.dropouts {
                prop_assert!(ra.participants.contains(id), "dropout outside selection");
                prop_assert!(!ra.dropped.contains(id), "dropout double-counted as straggler");
            }
        }
    }
}

/// The fig16 acceptance property: at a high dropout rate, provisioning
/// `K + extra` participants recovers at least the accuracy the plain
/// `Drop` policy achieves with its shrunken cohorts.
#[test]
fn overselect_recovers_drop_accuracy_under_heavy_dropout() {
    let accuracy_with = |straggler: StragglerPolicy| {
        let mut cfg = SimConfig::smoke(42);
        cfg.max_rounds = 60;
        cfg.target_accuracy = Some(1.1);
        cfg.fleet = Some(FleetDynamics::with_dropout_rate(0.45).straggler(straggler));
        Simulation::new(cfg)
            .run(&mut RandomSelector::new())
            .best_accuracy()
    };
    let drop = accuracy_with(StragglerPolicy::Drop);
    let overselect = accuracy_with(StragglerPolicy::OverSelect { extra: 5 });
    assert!(
        overselect >= drop,
        "OverSelect {overselect} must recover >= Drop {drop} at 45% dropout"
    );
}
