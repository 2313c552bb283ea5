//! The oracle baselines `O_participant` and `O_FL` (Section 5.1).
//!
//! Both oracles see the *current round's* true device conditions and the
//! data partition — information a deployed policy would have to learn —
//! and optimise over the Table 4 composition space:
//!
//! * [`OracleSelector::participant`] (`O_participant`): the best cluster of
//!   `K` participants given heterogeneity and runtime variance, trained at
//!   CPU-max like every other baseline.
//! * [`OracleSelector::full`] (`O_FL`): additionally assigns each selected
//!   device the energy-minimal execution target and DVFS step that still
//!   meets the round's pace, exploiting straggler slack.

use crate::clusters::CharacterizationCluster;
use crate::estimate::cohort_global_energy_j;
use crate::selection::{top_k_by, RoundContext, SelectionDecision, Selector};
use autofl_device::cost::{execute, ExecutionPlan, RoundCost};
use autofl_device::dvfs::{DvfsTable, ExecutionTarget};
use autofl_device::fleet::DeviceId;
use autofl_device::scenario::DeviceConditions;
use autofl_device::tier::DeviceTier;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;

/// An oracle policy with perfect knowledge of round conditions.
#[derive(Debug, Clone)]
pub struct OracleSelector {
    optimize_targets: bool,
    label: &'static str,
}

impl OracleSelector {
    /// `O_participant`: oracle participant selection, CPU-max execution.
    pub fn participant() -> Self {
        OracleSelector {
            optimize_targets: false,
            label: "O_participant",
        }
    }

    /// `O_FL`: oracle participants plus per-device execution targets and
    /// DVFS settings.
    pub fn full() -> Self {
        OracleSelector {
            optimize_targets: true,
            label: "O_FL",
        }
    }

    /// Ranks the best `k` of a tier's devices for this round: fastest
    /// expected completion first, with non-IID (low class coverage)
    /// devices pushed back. Each ranked device comes with the CPU-max
    /// cost it was scored by, so composing cohorts reads no conditions.
    ///
    /// Every eligible device of the tier is read and costed exactly once
    /// (`O(N)` cost-model calls) and the ranking is a deterministic
    /// partial top-`k` ([`top_k_by`], `O(N + K log K)`): no composition
    /// ever takes more than `k` devices from one tier, so the full-pool
    /// sort this used to do was wasted work at fleet scale. Ties
    /// (identical scores) keep the shuffled order, exactly as the
    /// previous stable sort did.
    fn rank_tier(
        ctx: &RoundContext<'_>,
        tier: DeviceTier,
        k: usize,
        rng: &mut SmallRng,
    ) -> Vec<(DeviceId, RoundCost)> {
        let mut pool = ctx.eligible_ids_of_tier(tier);
        // Random tie-break order first (the paper randomises among equals
        // to avoid biased selection).
        pool.shuffle(rng);
        let classes = ctx.partition.num_classes() as f64;
        let score = |id: &DeviceId, cost: &RoundCost| -> f64 {
            let samples = ctx.partition.device_sample_count(id.0).max(1) as f64;
            let coverage = ctx.partition.num_classes_present(id.0) as f64 / classes;
            let skew = ctx.partition.device_divergence(id.0);
            // Time per useful sample: devices with little or skewed data
            // contribute less convergence per second, so normalising by
            // sample count keeps the oracle from "winning" rounds with
            // data-starved non-IID devices; label skew adds client drift.
            cost.total_time_s() / samples * (1.0 + 2.0 * (1.0 - coverage) + skew)
        };
        let mut scored: Vec<(DeviceId, f64, usize, RoundCost)> = pool
            .iter()
            .enumerate()
            .map(|(pos, id)| {
                let cost = execute(
                    tier,
                    ExecutionPlan::cpu_max(tier),
                    ctx.task_for(*id),
                    &ctx.conditions.get(id.0),
                );
                (*id, score(id, &cost), pos, cost)
            })
            .collect();
        top_k_by(&mut scored, k, |a, b| {
            a.1.partial_cmp(&b.1)
                .expect("finite scores")
                .then_with(|| a.2.cmp(&b.2))
        });
        scored
            .into_iter()
            .map(|(id, _, _, cost)| (id, cost))
            .collect()
    }

    /// Picks the energy-minimal `(target, step)` whose completion under
    /// `conditions` (device `id`'s, read once by the caller) stays within
    /// `deadline_s`; falls back to CPU-max.
    fn best_plan(
        ctx: &RoundContext<'_>,
        id: DeviceId,
        conditions: &DeviceConditions,
        deadline_s: f64,
    ) -> ExecutionPlan {
        let tier = ctx.fleet.device(id).tier();
        let task = ctx.task_for(id);
        let mut best = ExecutionPlan::cpu_max(tier);
        let mut best_energy = f64::INFINITY;
        for target in ExecutionTarget::all() {
            let table = DvfsTable::for_tier(tier, target);
            for step in 1..=table.num_steps() {
                let plan = ExecutionPlan::at_step(target, step);
                let cost = execute(tier, plan, task, conditions);
                if cost.total_time_s() <= deadline_s && cost.total_energy_j() < best_energy {
                    best_energy = cost.total_energy_j();
                    best = plan;
                }
            }
        }
        if best_energy.is_infinite() {
            // Nothing meets the deadline; run as fast as possible on the
            // least-bad target.
            let cpu = execute(tier, ExecutionPlan::cpu_max(tier), task, conditions);
            let gpu_table = DvfsTable::for_tier(tier, ExecutionTarget::Gpu);
            let gpu_plan = ExecutionPlan::at_step(ExecutionTarget::Gpu, gpu_table.num_steps());
            let gpu = execute(tier, gpu_plan, task, conditions);
            if gpu.total_time_s() < cpu.total_time_s() {
                return gpu_plan;
            }
        }
        best
    }
}

impl Selector for OracleSelector {
    fn select(&mut self, ctx: &RoundContext<'_>, rng: &mut SmallRng) -> SelectionDecision {
        let k = ctx.params.num_participants;
        let ranked: Vec<(DeviceTier, Vec<(DeviceId, RoundCost)>)> = DeviceTier::all()
            .into_iter()
            .map(|t| (t, Self::rank_tier(ctx, t, k, rng)))
            .collect();

        // Evaluate every Table 4 composition with the best devices of each
        // tier and pick the one minimising estimated energy-to-converge.
        let mut best: Option<(f64, Vec<DeviceId>)> = None;
        for cluster in CharacterizationCluster::fixed() {
            let (h, m, l) = cluster.composition(k).expect("fixed cluster");
            let mut participants = Vec::with_capacity(k);
            let mut costs = Vec::with_capacity(k);
            for (tier, want) in [
                (DeviceTier::High, h),
                (DeviceTier::Mid, m),
                (DeviceTier::Low, l),
            ] {
                let pool = &ranked
                    .iter()
                    .find(|(t, _)| *t == tier)
                    .expect("ranked all tiers")
                    .1;
                for (id, cost) in pool.iter().take(want) {
                    participants.push(*id);
                    costs.push(*cost);
                }
            }
            if participants.len() < k {
                continue; // fleet cannot realise this composition
            }
            // The CPU-max costs the ranking computed are exactly what
            // this cohort would execute.
            let global_energy_j = cohort_global_energy_j(ctx.fleet, &participants, &costs);
            let ids: Vec<usize> = participants.iter().map(|id| id.0).collect();
            let coverage = ctx.partition.cohort_class_coverage(&ids);
            let divergence = ctx.partition.cohort_divergence(&ids);
            // Client drift of the candidate cohort: individually-skewed
            // members slow or stall convergence, so a composition that can
            // draw flatter devices (even from slower tiers) may beat the
            // energy-optimal one — the paper's "optimal cluster shifts
            // with data heterogeneity".
            let member_div = ids
                .iter()
                .map(|&d| ctx.partition.device_divergence(d))
                .sum::<f64>()
                / ids.len().max(1) as f64;
            let drift = (member_div / 2.0) * (1.0 - 0.35 * (1.0 - divergence / 2.0));
            // Steep: a composition that stalls convergence is useless no
            // matter how little energy its rounds draw.
            let drift_factor =
                (1.0 - 20.0 * (drift - crate::accuracy::DRIFT_KNEE).max(0.0)).max(0.05);
            let quality =
                (coverage * coverage * (1.0 - divergence / 2.0).max(0.05) * drift_factor).max(0.01);
            // Energy to converge ∝ per-round energy / convergence quality.
            let score = global_energy_j / quality;
            if best.as_ref().map(|(s, _)| score < *s).unwrap_or(true) {
                best = Some((score, participants));
            }
        }
        let participants = best.map(|(_, p)| p).unwrap_or_else(|| {
            let mut ids = ctx.eligible_ids();
            ids.shuffle(rng);
            ids.truncate(k);
            ids
        });

        if !self.optimize_targets {
            return SelectionDecision::cpu_max(ctx.fleet, participants);
        }

        // O_FL: exploit straggler slack — the slowest CPU-max participant
        // sets the pace; everyone else slows down or switches target to
        // save energy while staying within that pace. Each participant's
        // conditions are read once and serve both its pace and its plan.
        let conditions: Vec<DeviceConditions> = participants
            .iter()
            .map(|id| ctx.conditions.get(id.0))
            .collect();
        let pace = participants
            .iter()
            .zip(&conditions)
            .map(|(id, c)| {
                let tier = ctx.fleet.device(*id).tier();
                execute(tier, ExecutionPlan::cpu_max(tier), ctx.task_for(*id), c).total_time_s()
            })
            .fold(0.0f64, f64::max);
        let plans: Vec<ExecutionPlan> = participants
            .iter()
            .zip(&conditions)
            .map(|(id, c)| Self::best_plan(ctx, *id, c, pace))
            .collect();
        SelectionDecision {
            participants,
            plans,
        }
    }

    fn name(&self) -> &'static str {
        self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{SimConfig, Simulation};
    use crate::selection::RandomSelector;
    use autofl_data::partition::DataDistribution;
    use autofl_device::scenario::VarianceScenario;
    use autofl_nn::zoo::Workload;

    fn short_cfg() -> SimConfig {
        let mut cfg = SimConfig::paper_default(Workload::CnnMnist);
        cfg.max_rounds = 120;
        cfg
    }

    #[test]
    fn oracle_beats_random_on_global_ppw() {
        let oracle = Simulation::new(short_cfg()).run(&mut OracleSelector::participant());
        let random = Simulation::new(short_cfg()).run(&mut RandomSelector::new());
        assert!(
            oracle.ppw_global() > 1.5 * random.ppw_global(),
            "oracle {} vs random {}",
            oracle.ppw_global(),
            random.ppw_global()
        );
    }

    #[test]
    fn ofl_is_at_least_as_energy_efficient_as_oparticipant() {
        let part = Simulation::new(short_cfg()).run(&mut OracleSelector::participant());
        let full = Simulation::new(short_cfg()).run(&mut OracleSelector::full());
        assert!(
            full.ppw_local() >= part.ppw_local() * 0.98,
            "O_FL local {} vs O_participant {}",
            full.ppw_local(),
            part.ppw_local()
        );
    }

    #[test]
    fn oracle_avoids_non_iid_devices() {
        let mut cfg = short_cfg();
        cfg.distribution = DataDistribution::non_iid_percent(50);
        cfg.max_rounds = 40;
        let mut sim = Simulation::new(cfg);
        let mut oracle = OracleSelector::participant();
        let rec = sim.step(&mut oracle).expect("round 0");
        let partition = sim.data().partition.clone();
        let non_iid_selected = rec
            .participants
            .iter()
            .filter(|id| partition.is_non_iid(id.0))
            .count();
        assert!(
            non_iid_selected <= rec.participants.len() / 3,
            "{} of {} selected were non-IID",
            non_iid_selected,
            rec.participants.len()
        );
    }

    #[test]
    fn ofl_downclocks_fast_devices_under_variance() {
        let mut cfg = short_cfg();
        cfg.scenario = VarianceScenario::with_interference();
        let mut sim = Simulation::new(cfg);
        let mut ofl = OracleSelector::full();
        let mut saw_non_max = false;
        for _ in 0..5 {
            let rec = sim.step(&mut ofl).expect("within the 120-round horizon");
            for (id, plan) in rec.participants.iter().zip(&rec.plans) {
                let tier = sim.fleet().device(*id).tier();
                let table = DvfsTable::for_tier(tier, plan.target);
                if usize::from(plan.freq_step) < table.num_steps()
                    || plan.target == ExecutionTarget::Gpu
                {
                    saw_non_max = true;
                }
            }
        }
        assert!(saw_non_max, "O_FL never used DVFS slack or the GPU");
    }
}
