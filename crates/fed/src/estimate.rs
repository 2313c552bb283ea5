//! Round-level cost estimation shared by the oracle baselines, the AutoFL
//! reward (Eqs. 5–6), and the simulation engine itself.

use autofl_device::cost::{execute, idle_energy_j, ExecutionPlan, RoundCost, TrainingTask};
use autofl_device::fleet::{DeviceId, Fleet};
use autofl_device::scenario::Conditions;
use autofl_device::tier::DeviceTier;
use rayon::prelude::*;

/// Cost breakdown of a whole aggregation round across the fleet.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RoundEstimate {
    /// Wall-clock round time: the slowest participant's compute + comm.
    pub round_time_s: f64,
    /// Total active energy of participants (`Σ E_comp + E_comm`).
    pub active_energy_j: f64,
    /// Total idle energy of non-participants over the round (Eq. 4).
    pub idle_energy_j: f64,
    /// Per-participant costs, aligned with the input order.
    pub per_participant: Vec<RoundCost>,
}

impl RoundEstimate {
    /// `R_energy_global` of Eq. (6): active plus idle energy.
    pub fn global_energy_j(&self) -> f64 {
        self.active_energy_j + self.idle_energy_j
    }
}

/// The per-participant execution costs of a round, aligned with the
/// input order — the fan-out half of [`estimate_round`], for callers
/// (like the simulation engine) that do their own straggler-aware
/// time/energy reductions.
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

/// Estimates the cost of a round in which `participants[i]` executes
/// `tasks[i]` under `plans[i]`, with every other fleet device idle.
///
/// `conditions` is indexed by raw device id.
///
/// # Panics
///
/// Panics if the slice lengths disagree.
pub fn estimate_round(
    fleet: &Fleet,
    participants: &[DeviceId],
    plans: &[ExecutionPlan],
    tasks: &[TrainingTask],
    conditions: &dyn Conditions,
) -> RoundEstimate {
    let per_participant = participant_costs(fleet, participants, plans, tasks, conditions);
    estimate_from_costs(fleet, participants, per_participant)
}

/// The reduction half of [`estimate_round`]: the round estimate from
/// already-executed per-participant costs (aligned with `participants`),
/// for callers that computed the costs themselves — the oracles reuse the
/// ones they ranked with. Reads no conditions.
///
/// # Panics
///
/// Panics if the slice lengths disagree.
pub(crate) fn estimate_from_costs(
    fleet: &Fleet,
    participants: &[DeviceId],
    per_participant: Vec<RoundCost>,
) -> RoundEstimate {
    assert_eq!(
        participants.len(),
        per_participant.len(),
        "cost per participant"
    );
    let mut round_time_s: f64 = 0.0;
    let mut active_energy_j = 0.0;
    for cost in &per_participant {
        round_time_s = round_time_s.max(cost.total_time_s());
        active_energy_j += cost.total_energy_j();
    }
    // K-sized sorted probe instead of a fleet-sized membership mask: the
    // oracle calls this once per candidate cohort, so at million-device
    // fleets the O(N) `vec![false; N]` rebuild dominated. Membership
    // testing does not touch the accumulation order, and `idle_energy_j`
    // is a pure function of the three-valued tier, so precomputing the
    // addends keeps the sum bit-identical to the per-device-call loop.
    let mut sorted_ids: Vec<usize> = participants.iter().map(|id| id.0).collect();
    sorted_ids.sort_unstable();
    let per_tier = [
        idle_energy_j(DeviceTier::High, round_time_s),
        idle_energy_j(DeviceTier::Mid, round_time_s),
        idle_energy_j(DeviceTier::Low, round_time_s),
    ];
    let mut idle = 0.0;
    for device in fleet.iter() {
        if sorted_ids.binary_search(&device.id().0).is_err() {
            idle += per_tier[match device.tier() {
                DeviceTier::High => 0,
                DeviceTier::Mid => 1,
                DeviceTier::Low => 2,
            }];
        }
    }
    RoundEstimate {
        round_time_s,
        active_energy_j,
        idle_energy_j: idle,
        per_participant,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autofl_device::store::ConditionsStore;
    use autofl_device::tier::DeviceTier;

    fn small_fleet() -> Fleet {
        Fleet::custom(&[(DeviceTier::High, 2), (DeviceTier::Low, 2)], 1)
    }

    fn ideal_conditions(n: usize) -> ConditionsStore {
        ConditionsStore::new(n, 1)
    }

    fn task() -> TrainingTask {
        TrainingTask {
            flops: 50_000_000_000,
            upload_bytes: 4_000_000,
        }
    }

    #[test]
    fn round_time_is_gated_by_slowest() {
        let fleet = small_fleet();
        let conditions = ideal_conditions(4);
        let ids = [DeviceId(0), DeviceId(2)]; // one H, one L
        let plans = [
            ExecutionPlan::cpu_max(DeviceTier::High),
            ExecutionPlan::cpu_max(DeviceTier::Low),
        ];
        let est = estimate_round(&fleet, &ids, &plans, &[task(), task()], &conditions);
        // The low-end device is the straggler.
        assert!((est.round_time_s - est.per_participant[1].total_time_s()).abs() < 1e-12);
        assert!(est.per_participant[0].total_time_s() < est.round_time_s);
    }

    #[test]
    fn idle_energy_counts_non_participants() {
        let fleet = small_fleet();
        let conditions = ideal_conditions(4);
        let ids = [DeviceId(0)];
        let plans = [ExecutionPlan::cpu_max(DeviceTier::High)];
        let est = estimate_round(&fleet, &ids, &plans, &[task()], &conditions);
        let expected_idle = (DeviceTier::High.idle_power_w()
            + 2.0 * DeviceTier::Low.idle_power_w())
            * est.round_time_s;
        assert!((est.idle_energy_j - expected_idle).abs() < 1e-9);
        assert!(est.global_energy_j() > est.active_energy_j);
    }
}
