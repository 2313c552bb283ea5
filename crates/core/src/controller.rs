//! The AutoFL controller: epsilon-greedy Q-learning over participant
//! selection and execution targets (Algorithm 1 of the paper).

use crate::action::Action;
use crate::overhead::Overhead;
use crate::qtable::{QSharing, QTableSet};
use crate::reward::{reward, ParticipationOutcome, RewardConfig, RewardInputs};
use crate::state::{GlobalState, LocalState, StateSpace};
use autofl_device::cost::{execute, ExecutionPlan};
use autofl_device::fleet::DeviceId;
use autofl_device::scenario::DeviceConditions;
use autofl_fed::selection::{top_k_by, RoundContext, RoundFeedback, SelectionDecision, Selector};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::time::Instant;

/// Hyper-parameters of the AutoFL agent.
///
/// Defaults are the paper's published values: ε = 0.1 (Section 4.2),
/// learning rate γ = 0.9 and discount factor µ = 0.1 (Section 5.3).
#[derive(Debug, Clone)]
pub struct AutoFlConfig {
    /// Exploration probability ε of the epsilon-greedy policy.
    pub epsilon: f64,
    /// Multiplicative per-round decay applied to ε for both exploration
    /// coins (whole-cohort and per-device action). The paper uses constant
    /// ε (`1.0`, the default); values below 1 anneal all exploration away
    /// once the controller's reward has converged (Figure 15 territory)
    /// and are exposed for ablation.
    pub epsilon_decay: f64,
    /// Q-learning learning rate γ.
    pub learning_rate: f64,
    /// Q-learning discount factor µ.
    pub discount: f64,
    /// Reward weights/scales (Eq. 7).
    pub reward: RewardConfig,
    /// Whether the second-level action includes DVFS levels (true) or only
    /// the CPU/GPU choice at maximum frequency (ablation).
    pub dvfs_enabled: bool,
    /// Q-table sharing across devices.
    pub sharing: QSharing,
    /// Agent RNG seed (independent of the simulation seed).
    pub seed: u64,
}

impl Default for AutoFlConfig {
    fn default() -> Self {
        AutoFlConfig {
            epsilon: 0.1,
            epsilon_decay: 1.0,
            learning_rate: 0.9,
            discount: 0.1,
            reward: RewardConfig::default(),
            dvfs_enabled: true,
            sharing: QSharing::PerDevice,
            seed: 0xa07_0f1,
        }
    }
}

/// What the agent committed to in one dispatched round, pending its
/// reward. Under the full barrier at most one round is ever pending; a
/// buffered runtime (`autofl_fed::runtime`) can hold several cohorts in
/// flight and deliver their feedback out of dispatch order, so pending
/// rounds are keyed by round index.
#[derive(Debug, Clone)]
struct PendingRound {
    global_state: GlobalState,
    /// `(local state, chosen action)` for every fleet device.
    per_device: Vec<(LocalState, Action)>,
}

/// The AutoFL selector (the paper's contribution).
///
/// Plug it into [`autofl_fed::engine::Simulation::run`] like any other
/// [`Selector`]; it learns online from the round feedback.
///
/// # Examples
///
/// ```
/// use autofl_core::AutoFl;
/// use autofl_fed::engine::{SimConfig, Simulation};
///
/// let mut sim = Simulation::new(SimConfig::tiny_test(3));
/// let mut autofl = AutoFl::new(Default::default());
/// let result = sim.run(&mut autofl);
/// assert!(result.final_accuracy() > 0.0);
/// ```
#[derive(Debug)]
pub struct AutoFl {
    config: AutoFlConfig,
    space: StateSpace,
    tables: Option<QTableSet>,
    /// In-flight decisions awaiting feedback, keyed by round index.
    pending: Vec<(usize, PendingRound)>,
    rng: SmallRng,
    overhead: Overhead,
    reward_history: Vec<f64>,
    /// Reward config with energy scales normalised to the workload's
    /// nominal per-device round energy (resolved on the first round).
    resolved_reward: Option<RewardConfig>,
}

impl AutoFl {
    /// Creates an agent with the given hyper-parameters.
    pub fn new(config: AutoFlConfig) -> Self {
        let rng = SmallRng::seed_from_u64(config.seed);
        AutoFl {
            config,
            space: StateSpace::paper_bins(),
            tables: None,
            pending: Vec::new(),
            rng,
            overhead: Overhead::default(),
            reward_history: Vec::new(),
            resolved_reward: None,
        }
    }

    /// Creates an agent with the paper's defaults.
    pub fn paper_default() -> Self {
        AutoFl::new(AutoFlConfig::default())
    }

    /// The agent's configuration.
    pub fn config(&self) -> &AutoFlConfig {
        &self.config
    }

    /// Mean per-device reward of each completed round; flattens once the
    /// policy converges (Figure 15).
    pub fn reward_history(&self) -> &[f64] {
        &self.reward_history
    }

    /// Round index after which the mean reward stabilised: the first round
    /// where the trailing `window` rewards stay within `tolerance` of
    /// their mean. `None` until that happens.
    pub fn reward_converged_round(&self, window: usize, tolerance: f64) -> Option<usize> {
        if self.reward_history.len() < window {
            return None;
        }
        for end in window..=self.reward_history.len() {
            let slice = &self.reward_history[end - window..end];
            let mean = slice.iter().sum::<f64>() / window as f64;
            if slice.iter().all(|r| (r - mean).abs() <= tolerance) {
                return Some(end - 1);
            }
        }
        None
    }

    /// Controller-side overhead counters (Section 6.4).
    pub fn overhead(&self) -> &Overhead {
        &self.overhead
    }

    /// Approximate Q-table memory in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.tables.as_ref().map(|t| t.memory_bytes()).unwrap_or(0)
    }

    fn candidate_actions(&self) -> Vec<Action> {
        if self.config.dvfs_enabled {
            Action::training_actions()
        } else {
            Action::training_actions()
                .into_iter()
                .filter(|a| matches!(a, Action::Train { dvfs_level: 0, .. }))
                .collect()
        }
    }

    /// Bounds a chosen training action to the round's pace.
    ///
    /// The paper augments execution targets with DVFS "to exploit the
    /// performance slack caused by stragglers" — slack exploitation, not
    /// slack creation. A device whose eco/GPU choice would itself become
    /// the straggler (and stretch everyone's idle energy) is upgraded to
    /// the fastest setting of its chosen target, falling back to CPU-max
    /// if the target cannot meet the pace at all. `conditions` are device
    /// `id`'s, read once by the caller.
    fn clamp_to_pace(
        ctx: &RoundContext<'_>,
        id: DeviceId,
        conditions: &DeviceConditions,
        action: Action,
        pace_s: f64,
    ) -> Action {
        let Action::Train { target, dvfs_level } = action else {
            return action;
        };
        let tier = ctx.fleet.device(id).tier();
        let task = ctx.task_for(id);
        let time_of =
            |a: Action| -> f64 { execute(tier, a.plan_for(tier), task, conditions).total_time_s() };
        let budget = pace_s * 1.05;
        if time_of(action) <= budget {
            return action;
        }
        // Try faster DVFS levels on the same target, then CPU-max.
        for lvl in (0..dvfs_level).rev() {
            let candidate = Action::Train {
                target,
                dvfs_level: lvl,
            };
            if time_of(candidate) <= budget {
                return candidate;
            }
        }
        Action::Train {
            target: autofl_device::dvfs::ExecutionTarget::Cpu,
            dvfs_level: 0,
        }
    }
}

impl Selector for AutoFl {
    fn select(&mut self, ctx: &RoundContext<'_>, _rng: &mut SmallRng) -> SelectionDecision {
        // Observe phase: build the global and per-device states.
        let t_observe = Instant::now();
        if self.tables.is_none() {
            self.tables = Some(QTableSet::new(
                ctx.fleet,
                self.config.sharing,
                self.config.seed ^ 0x9ab1e,
            ));
        }
        if self.resolved_reward.is_none() {
            // Normalise the Eq. (7) energy scales to this use case's
            // nominal per-device round energy (a mid-tier device at
            // CPU-max under ideal conditions), so the reward's relative
            // term weights are workload-independent: the local term spans
            // ~10–25 units across tiers and the global term ~5–10 units.
            let mid = ctx
                .fleet
                .iter()
                .find(|d| d.tier() == autofl_device::tier::DeviceTier::Mid)
                .or_else(|| ctx.fleet.iter().next())
                .expect("non-empty fleet");
            let nominal_j = execute(
                mid.tier(),
                ExecutionPlan::cpu_max(mid.tier()),
                ctx.task_for(mid.id()),
                &DeviceConditions::ideal(),
            )
            .total_energy_j()
            .max(1e-6);
            let mut reward = self.config.reward;
            reward.local_energy_scale_j = nominal_j / 25.0;
            reward.global_energy_scale_j = nominal_j * ctx.params.num_participants as f64 / 7.0;
            self.resolved_reward = Some(reward);
        }
        let global_state = self.space.global_state(ctx);
        let total_classes = ctx.partition.num_classes().max(1) as f64;
        // Per-device local states: one conditions read per device, and an
        // availability view that is storage-free for a static fleet.
        let locals: Vec<LocalState> = ctx
            .fleet
            .iter()
            .map(|d| {
                let frac = ctx.partition.num_classes_present(d.id().0) as f64 / total_classes;
                self.space.local_state(
                    &ctx.conditions.get(d.id().0),
                    frac,
                    &ctx.availability.get(d.id().0),
                )
            })
            .collect();
        let observe_elapsed = t_observe.elapsed();

        // Select phase: epsilon-greedy over per-device Q-values.
        let t_select = Instant::now();
        let candidates = self.candidate_actions();
        let tables = self.tables.as_mut().expect("tables built above");
        let k = ctx.params.num_participants;
        let eps = self.config.epsilon * self.config.epsilon_decay.powi(ctx.round as i32);
        let explore = self.rng.gen::<f64>() < eps;
        let mut actions: Vec<Action> = vec![Action::Idle; ctx.fleet.len()];
        let participants: Vec<DeviceId> = if explore {
            // Exploration draws only from the check-in-eligible pool —
            // the server never contacts ineligible devices.
            let mut ids = ctx.eligible_ids();
            ids.shuffle(&mut self.rng);
            ids.truncate(k);
            for id in &ids {
                actions[id.0] = *candidates
                    .choose(&mut self.rng)
                    .expect("non-empty candidates");
            }
            ids
        } else {
            // Pre-sized from the per-shard availability bins: the store
            // already counted the eligible devices, so no fleet scan (or
            // Vec regrowth) is needed to size the candidate buffer.
            let mut scored: Vec<(DeviceId, Action, f64)> =
                Vec::with_capacity(ctx.availability.eligible_count());
            scored.extend(
                ctx.fleet
                    .iter()
                    .filter(|d| ctx.availability.is_eligible(d.id().0))
                    .map(|d| {
                        let id = d.id();
                        let (a, q) = tables.table_mut(id).best_action(
                            global_state,
                            locals[id.0],
                            &candidates,
                        );
                        (id, a, q)
                    }),
            );
            // Deterministic partial top-K over Q-values (O(N + K log K)
            // instead of sorting the whole eligible fleet): ties keep
            // fleet order via the device-id tie-break, exactly as the
            // stable full sort this replaces did.
            top_k_by(&mut scored, k, |a, b| {
                b.2.partial_cmp(&a.2)
                    .expect("finite Q-values")
                    .then_with(|| a.0.cmp(&b.0))
            });
            for (id, a, _) in &scored {
                // Per-device ε-greedy over the second-level action: each
                // selected device's agent occasionally tries a different
                // execution target / DVFS step. Whole-cohort exploration
                // above cannot cover the per-device action space at fleet
                // scale — K random devices per explored round leave most
                // (device, action) cells unvisited — so without this the
                // greedy policy locks into whichever action the Q-table's
                // random initialisation happened to rank first.
                // Annealed by the same decayed ε as the cohort coin, so
                // `epsilon_decay < 1` removes *all* exploration over time.
                actions[id.0] = if eps > 0.0 && self.rng.gen::<f64>() < eps {
                    *candidates
                        .choose(&mut self.rng)
                        .expect("non-empty candidates")
                } else {
                    *a
                };
            }
            scored.into_iter().map(|(id, _, _)| id).collect()
        };
        // Round pace: the slowest participant at its tier's CPU-max. Eco
        // choices may fill slack up to this pace but not extend it. Each
        // participant's conditions are read once for both.
        let conditions: Vec<DeviceConditions> = participants
            .iter()
            .map(|id| ctx.conditions.get(id.0))
            .collect();
        let pace_s = participants
            .iter()
            .zip(&conditions)
            .map(|(id, c)| {
                let tier = ctx.fleet.device(*id).tier();
                execute(tier, ExecutionPlan::cpu_max(tier), ctx.task_for(*id), c).total_time_s()
            })
            .fold(0.0f64, f64::max);
        for (id, c) in participants.iter().zip(&conditions) {
            actions[id.0] = Self::clamp_to_pace(ctx, *id, c, actions[id.0], pace_s);
        }
        let plans = participants
            .iter()
            .map(|id| actions[id.0].plan_for(ctx.fleet.device(*id).tier()))
            .collect();
        let select_elapsed = t_select.elapsed();
        self.overhead
            .record_decision(observe_elapsed, select_elapsed);

        self.pending.push((
            ctx.round,
            PendingRound {
                global_state,
                per_device: locals.into_iter().zip(actions).collect(),
            },
        ));
        SelectionDecision {
            participants,
            plans,
        }
    }

    fn observe(&mut self, feedback: &RoundFeedback<'_>) {
        // Match the feedback to the decision made at its dispatch round —
        // not the most recent one, which may belong to a different cohort
        // still in flight under the event-driven runtime.
        let Some(slot) = self.pending.iter().position(|(r, _)| *r == feedback.round) else {
            return;
        };
        let (_, pending) = self.pending.remove(slot);
        let tables = match self.tables.as_mut() {
            Some(t) => t,
            None => return,
        };

        // Reward phase (Eq. 5–7). Deadline misses and mid-round dropouts
        // carry their own (default-zero) penalties, so the agent can
        // learn to route around flaky devices rather than just expensive
        // ones.
        let t_reward = Instant::now();
        let mut local_energy = vec![feedback.idle_energy_per_device_j; pending.per_device.len()];
        let mut outcomes = vec![ParticipationOutcome::Idle; pending.per_device.len()];
        for (id, e) in feedback
            .participants
            .iter()
            .zip(feedback.per_participant_energy_j)
        {
            local_energy[id.0] = *e;
            outcomes[id.0] = ParticipationOutcome::Completed;
        }
        for id in feedback.dropped {
            outcomes[id.0] = ParticipationOutcome::DeadlineMiss;
        }
        for id in feedback.dropouts {
            outcomes[id.0] = ParticipationOutcome::Dropout;
        }
        let reward_config = self.resolved_reward.unwrap_or(self.config.reward);
        let rewards: Vec<f64> = (0..pending.per_device.len())
            .map(|d| {
                reward(
                    &reward_config,
                    &RewardInputs {
                        local_energy_j: local_energy[d],
                        global_energy_j: feedback.global_energy_j,
                        accuracy: feedback.accuracy,
                        prev_accuracy: feedback.prev_accuracy,
                        outcome: outcomes[d],
                        staleness: feedback.mean_staleness,
                        uplink_bytes: feedback.bytes_uplinked as f64,
                    },
                )
            })
            .collect();
        let reward_elapsed = t_reward.elapsed();

        // Update phase: tabular Q-learning. The paper's own sensitivity
        // study picks µ = 0.1 because consecutive round states are only
        // weakly related; we bootstrap against the same state's best
        // action, which is exact in that near-myopic regime.
        let t_update = Instant::now();
        let gamma = self.config.learning_rate;
        let mu = self.config.discount;
        for (d, ((local_state, action), r)) in pending.per_device.iter().zip(&rewards).enumerate() {
            tables.table_mut(DeviceId(d)).update(
                pending.global_state,
                *local_state,
                *action,
                *r,
                gamma,
                mu,
            );
        }
        let update_elapsed = t_update.elapsed();
        self.overhead
            .record_learning(reward_elapsed, update_elapsed);

        self.reward_history
            .push(rewards.iter().sum::<f64>() / rewards.len().max(1) as f64);
    }

    fn name(&self) -> &'static str {
        "AutoFL"
    }

    // Everything the agent has learned — Q-tables, in-flight decisions,
    // exploration RNG position, reward history and the resolved reward
    // scales — so a resumed run continues the exact learning trajectory.
    // The wall-clock overhead counters are profiling, not simulation
    // state, and restart from zero on resume.
    fn state_snapshot(&self) -> Option<serde::Value> {
        let pending = serde::Value::Seq(
            self.pending
                .iter()
                .map(|(round, p)| {
                    serde::Value::Map(vec![
                        ("round".to_string(), round.to_value()),
                        ("global_state".to_string(), p.global_state.to_value()),
                        (
                            "per_device".to_string(),
                            serde::Value::Seq(
                                p.per_device
                                    .iter()
                                    .map(|(l, a)| {
                                        serde::Value::Map(vec![
                                            ("l".to_string(), l.to_value()),
                                            ("a".to_string(), a.to_value()),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        );
        Some(serde::Value::Map(vec![
            ("tables".to_string(), self.tables.to_value()),
            ("pending".to_string(), pending),
            ("rng".to_string(), self.rng.state().to_vec().to_value()),
            ("reward_history".to_string(), self.reward_history.to_value()),
            (
                "resolved_reward".to_string(),
                self.resolved_reward.to_value(),
            ),
        ]))
    }

    fn state_restore(&mut self, state: &serde::Value) -> Result<(), serde::Error> {
        let tables: Option<QTableSet> = serde::field(state, "tables")?;
        let pending_rows = match serde::field_or_null(state, "pending") {
            serde::Value::Seq(items) => items,
            other => return Err(serde::Error::invalid_type("sequence", other).at("pending")),
        };
        let mut pending = Vec::with_capacity(pending_rows.len());
        for (i, entry) in pending_rows.iter().enumerate() {
            let in_entry = |e: serde::Error| e.at(&format!("pending[{i}]"));
            let round: usize = serde::field(entry, "round").map_err(in_entry)?;
            let global_state: GlobalState =
                serde::field(entry, "global_state").map_err(in_entry)?;
            let device_rows = match serde::field_or_null(entry, "per_device") {
                serde::Value::Seq(items) => items,
                other => {
                    return Err(in_entry(
                        serde::Error::invalid_type("sequence", other).at("per_device"),
                    ))
                }
            };
            let mut per_device = Vec::with_capacity(device_rows.len());
            for (j, d) in device_rows.iter().enumerate() {
                let in_device = |e: serde::Error| in_entry(e.at(&format!("per_device[{j}]")));
                let l: LocalState = serde::field(d, "l").map_err(in_device)?;
                let a: Action = serde::field(d, "a").map_err(in_device)?;
                per_device.push((l, a));
            }
            pending.push((
                round,
                PendingRound {
                    global_state,
                    per_device,
                },
            ));
        }
        let words: Vec<u64> = serde::field(state, "rng")?;
        let rng_state: [u64; 4] = words.try_into().map_err(|w: Vec<u64>| {
            serde::Error::custom(format!("rng state needs 4 words, found {}", w.len())).at("rng")
        })?;
        let reward_history: Vec<f64> = serde::field(state, "reward_history")?;
        let resolved_reward: Option<RewardConfig> = serde::field(state, "resolved_reward")?;
        self.tables = tables;
        self.pending = pending;
        self.rng = SmallRng::from_state(rng_state);
        self.reward_history = reward_history;
        self.resolved_reward = resolved_reward;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autofl_fed::engine::{SimConfig, Simulation};
    use autofl_fed::selection::RandomSelector;
    use autofl_nn::zoo::Workload;

    #[test]
    fn runs_a_tiny_simulation() {
        let mut sim = Simulation::new(SimConfig::tiny_test(11));
        let mut agent = AutoFl::paper_default();
        let result = sim.run(&mut agent);
        assert!(!result.records.is_empty());
        assert!(agent.reward_history().len() == result.records.len());
        assert!(agent.memory_bytes() > 0);
        assert!(agent.overhead().rounds() > 0);
    }

    #[test]
    fn learns_to_beat_random_selection() {
        let mut cfg = SimConfig::paper_default(Workload::CnnMnist);
        cfg.max_rounds = 400;
        let autofl = Simulation::new(cfg.clone()).run(&mut AutoFl::paper_default());
        let random = Simulation::new(cfg).run(&mut RandomSelector::new());
        assert!(
            autofl.ppw_global() > random.ppw_global(),
            "AutoFL {} vs random {}",
            autofl.ppw_global(),
            random.ppw_global()
        );
    }

    #[test]
    fn epsilon_zero_never_explores_after_warmup() {
        // With epsilon = 0 every selection is greedy, so two identical
        // agents on identical contexts pick identical participants.
        let mk = || {
            AutoFl::new(AutoFlConfig {
                epsilon: 0.0,
                ..Default::default()
            })
        };
        let mut sim_a = Simulation::new(SimConfig::tiny_test(5));
        let mut sim_b = Simulation::new(SimConfig::tiny_test(5));
        let a = sim_a.run(&mut mk());
        let b = sim_b.run(&mut mk());
        for (ra, rb) in a.records.iter().zip(b.records.iter()) {
            assert_eq!(ra.participants, rb.participants);
        }
    }

    #[test]
    fn reward_convergence_detection() {
        let mut agent = AutoFl::paper_default();
        // Inject a synthetic flat-after-noise reward history.
        agent.reward_history = (0..50)
            .map(|i| if i < 30 { (i % 7) as f64 * 10.0 } else { 100.0 })
            .collect();
        let converged = agent.reward_converged_round(10, 1.0);
        assert_eq!(converged, Some(39));
    }

    #[test]
    fn dvfs_ablation_restricts_actions() {
        let agent = AutoFl::new(AutoFlConfig {
            dvfs_enabled: false,
            ..Default::default()
        });
        let actions = agent.candidate_actions();
        assert_eq!(actions.len(), 2); // CPU-max and GPU-max only
    }
}
