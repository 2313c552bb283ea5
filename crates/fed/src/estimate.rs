//! Round-level cost estimation shared by the oracle baselines, the AutoFL
//! reward (Eqs. 5–6), and the simulation engine itself.

use autofl_device::cost::{execute, idle_energy_j, ExecutionPlan, RoundCost, TrainingTask};
use autofl_device::fleet::{Device, DeviceId, Fleet};
use autofl_device::scenario::Conditions;
use autofl_device::tier::DeviceTier;
use rayon::prelude::*;

/// The per-participant execution costs of a round, aligned with the
/// input order, for callers (like the simulation engine) that do their
/// own straggler-aware time/energy reductions.
///
/// Costs are independent per participant and execute in parallel across
/// the pool; the returned order is the input order regardless of thread
/// count. Each participant's conditions are read exactly once.
///
/// # Panics
///
/// Panics if the slice lengths disagree.
pub fn participant_costs(
    fleet: &Fleet,
    participants: &[DeviceId],
    plans: &[ExecutionPlan],
    tasks: &[TrainingTask],
    conditions: &dyn Conditions,
) -> Vec<RoundCost> {
    assert_eq!(participants.len(), plans.len(), "plan per participant");
    assert_eq!(participants.len(), tasks.len(), "task per participant");
    (0..participants.len())
        .into_par_iter()
        .with_min_len(64)
        .map(|i| {
            let id = participants[i];
            execute(
                fleet.device(id).tier(),
                plans[i],
                tasks[i],
                &conditions.get(id.0),
            )
        })
        .collect()
}

/// Idle energy of every fleet device outside `participants` over a round
/// of `round_time_s` seconds (Eq. 5's else branch), where `tiers` yields
/// each device's tier in fleet order and `ids` is a caller-provided sort
/// buffer (no per-call allocation). The engine charges it to every
/// completed cohort, and the oracles score candidate cohorts with it.
///
/// `idle_energy_j` is a pure function of the three-valued tier, so the
/// three addends are computed once. The walk then visits the gaps
/// between the sorted participant ids: the same additions, in fleet
/// order, as calling `idle_energy_j` for each non-participant, so the sum
/// is bit-identical to that loop.
pub(crate) fn fleet_idle_energy_j(
    ids: &mut Vec<usize>,
    tiers: impl IntoIterator<Item = DeviceTier>,
    participants: &[DeviceId],
    round_time_s: f64,
) -> f64 {
    let per_tier = DeviceTier::all().map(|tier| idle_energy_j(tier, round_time_s));
    let addend = |tier| {
        per_tier[match tier {
            DeviceTier::High => 0,
            DeviceTier::Mid => 1,
            DeviceTier::Low => 2,
        }]
    };
    ids.clear();
    ids.extend(participants.iter().map(|id| id.0));
    ids.sort_unstable();
    ids.dedup();
    let mut tiers = tiers.into_iter();
    let mut idle = 0.0;
    // `next` is the fleet index of the tier `tiers` yields next.
    let mut next = 0;
    for &id in ids.iter() {
        for tier in tiers.by_ref().take(id - next) {
            idle += addend(tier);
        }
        tiers.next(); // the participant's own
        next = id + 1;
    }
    for tier in tiers {
        idle += addend(tier);
    }
    idle
}

/// `R_energy_global` of Eq. (6) for a cohort whose members run at
/// `costs` (aligned with `participants`): their active energy plus the
/// idle energy of every other device over the slowest member's time. The
/// oracles score compositions with it from the costs they ranked with,
/// so it reads no conditions.
///
/// # Panics
///
/// Panics if the slice lengths disagree.
pub(crate) fn cohort_global_energy_j(
    fleet: &Fleet,
    participants: &[DeviceId],
    costs: &[RoundCost],
) -> f64 {
    assert_eq!(participants.len(), costs.len(), "cost per participant");
    let mut round_time_s: f64 = 0.0;
    let mut active_energy_j = 0.0;
    for cost in costs {
        round_time_s = round_time_s.max(cost.total_time_s());
        active_energy_j += cost.total_energy_j();
    }
    let tiers = fleet.iter().map(Device::tier);
    active_energy_j + fleet_idle_energy_j(&mut Vec::new(), tiers, participants, round_time_s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use autofl_device::store::ConditionsStore;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    fn small_fleet() -> Fleet {
        Fleet::custom(&[(DeviceTier::High, 2), (DeviceTier::Low, 2)], 1)
    }

    /// CPU-max costs of `ids` on `fleet` under ideal conditions.
    fn costs(fleet: &Fleet, ids: &[DeviceId]) -> Vec<RoundCost> {
        let task = TrainingTask {
            flops: 50_000_000_000,
            upload_bytes: 4_000_000,
        };
        let plans: Vec<ExecutionPlan> = ids
            .iter()
            .map(|&id| ExecutionPlan::cpu_max(fleet.device(id).tier()))
            .collect();
        let conditions = ConditionsStore::new(fleet.len(), 1);
        participant_costs(fleet, ids, &plans, &vec![task; ids.len()], &conditions)
    }

    #[test]
    fn round_time_is_gated_by_slowest() {
        let fleet = small_fleet();
        let ids = [DeviceId(0), DeviceId(2)]; // one H, one L
        let costs = costs(&fleet, &ids);
        // The low-end device is the straggler, and the idle fleet waits
        // for it: devices 1 (H) and 3 (L) idle over its time.
        let slowest = costs[1].total_time_s();
        assert!(costs[0].total_time_s() < slowest);
        let active = costs[0].total_energy_j() + costs[1].total_energy_j();
        let idle = 0.0
            + idle_energy_j(DeviceTier::High, slowest)
            + idle_energy_j(DeviceTier::Low, slowest);
        let global = cohort_global_energy_j(&fleet, &ids, &costs);
        assert_eq!(global.to_bits(), (active + idle).to_bits());
    }

    #[test]
    fn idle_energy_counts_non_participants() {
        let fleet = small_fleet();
        let ids = [DeviceId(0)];
        let costs = costs(&fleet, &ids);
        let round_time_s = costs[0].total_time_s();
        let tiers = fleet.iter().map(Device::tier);
        let idle = fleet_idle_energy_j(&mut Vec::new(), tiers, &ids, round_time_s);
        let expected_idle =
            (DeviceTier::High.idle_power_w() + 2.0 * DeviceTier::Low.idle_power_w()) * round_time_s;
        assert!((idle - expected_idle).abs() < 1e-9);
        let global = cohort_global_energy_j(&fleet, &ids, &costs);
        assert!(global > costs[0].total_energy_j());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn the_gap_walk_equals_the_per_device_sum(seed in 0u64..u64::MAX) {
            let mut rng = SmallRng::seed_from_u64(seed);
            // One to six `(tier, count)` runs, where a tier may repeat.
            let runs: Vec<(DeviceTier, usize)> = (0..rng.gen_range(1..=6))
                .map(|_| (DeviceTier::all()[rng.gen_range(0..3)], rng.gen_range(1..=40)))
                .collect();
            let fleet = Fleet::custom(&runs, seed);
            // Any subset, from none to the whole fleet, in random order.
            let mut participants = fleet.ids();
            participants.shuffle(&mut rng);
            participants.truncate(rng.gen_range(0..=fleet.len()));
            let round_time_s = rng.gen_range(0.0..1e4);

            let mut naive = 0.0;
            for device in fleet.iter() {
                if !participants.contains(&device.id()) {
                    naive += idle_energy_j(device.tier(), round_time_s);
                }
            }
            let tiers = fleet.iter().map(Device::tier);
            let walk = fleet_idle_energy_j(&mut Vec::new(), tiers, &participants, round_time_s);
            prop_assert_eq!(walk.to_bits(), naive.to_bits());
        }
    }
}
