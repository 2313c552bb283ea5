//! Accuracy engines: how a round's cohort turns into a new global test
//! accuracy.
//!
//! Two engines implement [`AccuracyEngine`]:
//!
//! * [`RealTrainingEngine`] actually trains the workload's scaled-down
//!   model (`autofl-nn`) on the partitioned synthetic data and evaluates on
//!   the held-out test set. This is the ground truth used by tests,
//!   examples and small benches.
//! * [`SurrogateEngine`] is a learning-curve model whose inputs are exactly
//!   the cohort statistics the paper identifies as driving convergence
//!   (effective samples, class coverage, label divergence, aggregation
//!   robustness). It makes the 1000-round × many-policy figure sweeps
//!   tractable; an integration test checks its ordering agrees with real
//!   training.

use crate::adversary::{AdversaryConfig, AdversaryRole};
use crate::algorithms::{AggregationAlgorithm, ClientUpdate};
use crate::fabric::UpdateCodec;
use autofl_data::FlData;
use autofl_device::fleet::DeviceId;
use autofl_nn::optim::Sgd;
use autofl_nn::zoo::Workload;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use serde::Serialize;

/// Statistics of the cohort whose updates were aggregated in a round.
#[derive(Debug, Clone)]
pub struct CohortStats {
    /// Devices whose updates were aggregated (stragglers dropped by the
    /// algorithm are excluded).
    pub participants: Vec<DeviceId>,
    /// Fraction of the nominal local work each participant completed
    /// (1.0 = full `E` epochs; partial updates are smaller), aligned with
    /// `participants`.
    pub update_fractions: Vec<f64>,
    /// Σ local_samples × fraction across participants.
    pub effective_samples: f64,
    /// Fraction of label classes covered by the cohort, in `[0, 1]`.
    pub class_coverage: f64,
    /// L1 divergence of the cohort's *joint* label distribution from
    /// uniform, in `[0, 2]`.
    pub divergence: f64,
    /// Sample-weighted mean of the *per-member* label divergences, in
    /// `[0, 2]`. Unlike the joint divergence this does not cancel when
    /// oppositely-skewed devices are mixed; it drives the client-drift
    /// penalty.
    pub mean_member_divergence: f64,
    /// Local epochs `E` configured for the round.
    pub local_epochs: usize,
    /// Mini-batch size `B`.
    pub batch_size: usize,
    /// Severity-weighted share of the cohort's effective update mass
    /// controlled by active poisoners (label-flippers, gradient
    /// scalers), in `[0, 1]`. Exactly `0.0` whenever the adversary
    /// subsystem is off, so honest runs take no poison branch at all.
    pub poison: f64,
}

/// Maps a cohort to the next global accuracy.
pub trait AccuracyEngine: Send {
    /// Current global test accuracy in `[0, 1]`.
    fn accuracy(&self) -> f64;

    /// Applies one aggregation round and returns the new accuracy.
    fn apply_round(&mut self, stats: &CohortStats) -> f64;

    /// Engine name for reports.
    fn name(&self) -> &'static str;

    /// Serializes the engine's mutable state (whatever `apply_round`
    /// advances) for a checkpoint: the surrogate's accuracy + noise
    /// stream, the real engine's global model + optimizer carry-overs.
    fn state_snapshot(&self) -> serde::Value;

    /// Restores state captured by
    /// [`AccuracyEngine::state_snapshot`] onto an engine freshly built
    /// from the same configuration.
    fn state_restore(&mut self, value: &serde::Value) -> Result<(), serde::Error>;
}

/// Cohort drift below this level is benign: oppositely-skewed updates
/// average out and the aggregation neither regresses nor caps convergence.
/// Shared by the surrogate's penalty and the oracle's composition score so
/// the oracle optimises the same landscape the surrogate simulates.
pub const DRIFT_KNEE: f64 = 0.40;

/// Workload-specific convergence constants shared by both engines.
#[derive(Debug, Clone, Copy)]
pub struct ConvergenceProfile {
    /// Accuracy an ideal run approaches.
    pub max_accuracy: f64,
    /// The experiment's "converged" threshold.
    pub target_accuracy: f64,
    /// Per-round progress rate with an ideal cohort.
    pub base_rate: f64,
    /// Starting (random-guess) accuracy.
    pub initial_accuracy: f64,
}

impl ConvergenceProfile {
    /// The profile for a workload. Rates are set so that ideal IID runs
    /// converge in roughly the paper's 200–300 rounds and the relative
    /// difficulty ordering (CNN < LSTM < MobileNet) holds.
    pub fn for_workload(workload: Workload) -> Self {
        match workload {
            Workload::CnnMnist => ConvergenceProfile {
                max_accuracy: 0.975,
                target_accuracy: 0.92,
                base_rate: 0.016,
                initial_accuracy: 0.10,
            },
            Workload::LstmShakespeare => ConvergenceProfile {
                max_accuracy: 0.58,
                target_accuracy: 0.50,
                base_rate: 0.013,
                initial_accuracy: 1.0 / 65.0,
            },
            Workload::MobileNetImageNet => ConvergenceProfile {
                max_accuracy: 0.72,
                target_accuracy: 0.62,
                base_rate: 0.010,
                initial_accuracy: 0.10,
            },
            Workload::TinyTest => ConvergenceProfile {
                max_accuracy: 0.95,
                target_accuracy: 0.85,
                base_rate: 0.05,
                initial_accuracy: 0.25,
            },
        }
    }
}

/// The learning-curve surrogate.
///
/// Per round, accuracy moves toward a cohort-dependent ceiling:
///
/// ```text
/// quality  = coverage² · (1 − (1 − robustness) · divergence / 2)
/// rate     = base_rate · min(1, √(effective / nominal)) · min(1, E/E_ref)
/// ceiling  = max_acc · (0.25 + 0.75 · (coverage + robustness·(1−coverage)/2))
/// acc'     = acc + rate · quality · (ceiling − acc) − regression + noise
/// ```
///
/// where `regression` penalises extremely skewed cohorts (the paper's
/// "naively including non-IID participants can significantly deteriorate
/// model convergence") and `noise` is a small seeded Gaussian.
#[derive(Debug, Clone)]
pub struct SurrogateEngine {
    profile: ConvergenceProfile,
    acc: f64,
    nominal_samples: f64,
    nominal_epochs: f64,
    robustness: f64,
    /// How much poisoned update mass the aggregation rule filters out
    /// ([`AggregationAlgorithm::poison_robustness`]); derived from the
    /// configuration, so it is not part of the checkpointed state.
    poison_robustness: f64,
    rng: SmallRng,
}

impl SurrogateEngine {
    /// Creates the surrogate.
    ///
    /// `nominal_samples` is the effective-sample count of a full ideal
    /// cohort (`K × samples_per_device`); `nominal_epochs` the reference
    /// `E` (the paper's S-settings use 5–10).
    pub fn new(
        workload: Workload,
        algorithm: AggregationAlgorithm,
        nominal_samples: f64,
        nominal_epochs: f64,
        seed: u64,
    ) -> Self {
        let profile = ConvergenceProfile::for_workload(workload);
        SurrogateEngine {
            profile,
            acc: profile.initial_accuracy,
            nominal_samples: nominal_samples.max(1.0),
            nominal_epochs: nominal_epochs.max(1.0),
            robustness: algorithm.heterogeneity_robustness(),
            poison_robustness: algorithm.poison_robustness(),
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// The convergence profile in use.
    pub fn profile(&self) -> ConvergenceProfile {
        self.profile
    }
}

impl AccuracyEngine for SurrogateEngine {
    fn accuracy(&self) -> f64 {
        self.acc
    }

    fn apply_round(&mut self, stats: &CohortStats) -> f64 {
        if stats.participants.is_empty() || stats.effective_samples <= 0.0 {
            // Nothing aggregated: accuracy holds (plus measurement noise).
            self.acc = (self.acc + self.rng.gen_range(-0.0005..0.0005))
                .clamp(0.0, self.profile.max_accuracy);
            return self.acc;
        }
        let coverage = stats.class_coverage.clamp(0.0, 1.0);
        let divergence = stats.divergence.clamp(0.0, 2.0);
        let exposure = 1.0 - self.robustness;
        let quality = (coverage * coverage) * (1.0 - exposure * divergence / 2.0).max(0.05);
        let sample_factor = (stats.effective_samples / self.nominal_samples)
            .sqrt()
            .min(1.0);
        let epoch_factor = (stats.local_epochs as f64 / self.nominal_epochs).min(1.0);
        let rate = self.profile.base_rate * sample_factor * (0.5 + 0.5 * epoch_factor);
        let eff_coverage = coverage + self.robustness * (1.0 - coverage) / 2.0;
        // Client drift: skewed *members* cap the reachable accuracy — the
        // FedAvg failure mode of Figure 11(c)/(d). The cap is modulated by
        // how balanced the cohort's *union* is: oppositely-skewed clients
        // partially cancel, so a selection policy that composes a
        // complementary cohort (AutoFL, the oracles) escapes the penalty a
        // random cohort of the same members suffers. Robust aggregation
        // (FedNova/FEDL/FedProx) shrinks the exposure.
        let member_div = stats.mean_member_divergence.clamp(0.0, 2.0);
        let balance = 1.0 - divergence / 2.0;
        let drift = (member_div / 2.0) * (1.0 - 0.35 * balance);
        let drift_excess = (drift - DRIFT_KNEE).max(0.0);
        let drift_penalty = 0.9 * exposure * drift_excess / (1.0 - DRIFT_KNEE);
        let mut ceiling = self.profile.max_accuracy
            * (0.25 + 0.75 * eff_coverage)
            * (1.0 - drift_penalty).max(0.2);
        // Drifted aggregations actively regress the model (local epochs on
        // 1–2 classes corrupt shared features), so heavily-skewed cohorts
        // equilibrate *below* the target instead of ratcheting toward it.
        let mut regression =
            rate * exposure * self.acc * (0.5 * (divergence - 1.0).max(0.0) + 6.0 * drift_excess);
        // Poison impact: the share of hostile update mass the aggregation
        // rule fails to filter both caps the reachable accuracy (the
        // model keeps re-learning flipped labels) and actively regresses
        // it in proportion to current accuracy. The regression is
        // quadratic in the surviving share: the sliver leaking past an
        // order-statistics rule is a second-order perturbation, while the
        // full poisoned mass a linear rule averages in dominates the
        // gradient signal. `stats.poison` is exactly 0.0 whenever the
        // adversary subsystem is off, so honest runs never enter this
        // branch and stay bit-identical.
        let surviving_poison = ((1.0 - self.poison_robustness) * stats.poison).clamp(0.0, 1.0);
        if surviving_poison > 0.0 {
            ceiling *= (1.0 - 0.75 * surviving_poison).max(0.1);
            regression += rate * self.acc * 4.0 * surviving_poison * surviving_poison;
        }
        let noise = self.rng.gen_range(-0.0008..0.0008);
        self.acc = (self.acc + rate * quality * (ceiling - self.acc) - regression + noise)
            .clamp(0.0, self.profile.max_accuracy);
        self.acc
    }

    fn name(&self) -> &'static str {
        "surrogate"
    }

    fn state_snapshot(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("acc".to_string(), self.acc.to_value()),
            ("rng".to_string(), self.rng.state().to_vec().to_value()),
        ])
    }

    fn state_restore(&mut self, value: &serde::Value) -> Result<(), serde::Error> {
        self.acc = serde::field(value, "acc")?;
        let words: Vec<u64> = serde::field(value, "rng")?;
        let state: [u64; 4] = words
            .try_into()
            .map_err(|_| serde::Error::custom("surrogate rng state must have 4 words").at("rng"))?;
        self.rng = SmallRng::from_state(state);
        Ok(())
    }
}

/// Ground truth: real federated training of the scaled-down model.
pub struct RealTrainingEngine {
    workload: Workload,
    data: FlData,
    algorithm: AggregationAlgorithm,
    global: Vec<f32>,
    lr: f32,
    eval_samples: usize,
    acc: f64,
    seed: u64,
    /// Global-gradient estimate from the previous round (FEDL's linear
    /// term); empty until the first aggregation.
    prev_global_grad: Vec<f32>,
    /// Rounds aggregated so far; mixed into every round's client seeds so
    /// each round draws a fresh minibatch ordering.
    rounds_applied: u64,
    /// Shard count of the hierarchical aggregation tree (bit-identical
    /// results at any value — see
    /// [`AggregationAlgorithm::aggregate_sharded`]).
    shards: usize,
    /// Network-fabric update codec: each client delta goes through the
    /// real encode→decode round trip before aggregation. `None` without
    /// a fabric.
    codec: Option<Box<dyn UpdateCodec>>,
    /// Adversarial fleet roles: poisoners actually train on flipped
    /// labels, scalers multiply their real deltas, free-riders return
    /// zero-work updates without training. `None` — the default — takes
    /// no adversary branch anywhere.
    adversary: Option<AdversaryConfig>,
}

impl std::fmt::Debug for RealTrainingEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RealTrainingEngine")
            .field("workload", &self.workload.name())
            .field("algorithm", &self.algorithm.name())
            .field("acc", &self.acc)
            .finish()
    }
}

impl RealTrainingEngine {
    /// Creates the engine around a federated dataset. `shards` sets the
    /// hierarchical-aggregation tree width (1 = flat; results are
    /// bit-identical at any value). `codec` — when a network fabric is
    /// attached — runs every client delta through the real encode→decode
    /// round trip before aggregation.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        workload: Workload,
        data: FlData,
        algorithm: AggregationAlgorithm,
        lr: f32,
        eval_samples: usize,
        seed: u64,
        shards: usize,
        codec: Option<Box<dyn UpdateCodec>>,
        adversary: Option<AdversaryConfig>,
    ) -> Self {
        let mut model = workload.build_trainable(seed);
        let global = model.param_vector();
        let mut engine = RealTrainingEngine {
            workload,
            data,
            algorithm,
            global,
            lr,
            eval_samples,
            acc: 0.0,
            seed,
            prev_global_grad: Vec::new(),
            rounds_applied: 0,
            shards: shards.max(1),
            codec,
            adversary,
        };
        engine.acc = engine.evaluate();
        engine
    }

    /// Evaluates the current global model on (a prefix of) the test set.
    pub fn evaluate(&mut self) -> f64 {
        let mut model = self.workload.build_trainable(self.seed);
        model.set_param_vector(&self.global);
        let n = self.data.test.len().min(self.eval_samples.max(1));
        let idx: Vec<usize> = (0..n).collect();
        let (x, y) = self.data.test.batch(&idx);
        let (_, acc) = model.evaluate(&x, &y);
        acc as f64
    }

    /// Runs local training for one participant and returns its update.
    fn train_client(
        &self,
        device: DeviceId,
        fraction: f64,
        batch_size: usize,
        round_seed: u64,
    ) -> Option<ClientUpdate> {
        let indices = self.data.partition.device_indices(device.0);
        if indices.is_empty() {
            return None;
        }
        // Adversary role of this client — a pure function of
        // `(seed, device)`, matching the engine-side assignment exactly.
        let role = self
            .adversary
            .map_or(AdversaryRole::Honest, |a| a.role_of(self.seed, device.0));
        if role == AdversaryRole::FreeRider {
            // A free-rider performs no training: it uploads a zero delta
            // claiming its full sample count, hoping to ride the cohort's
            // aggregate. (The engine zeroes its update mass server-side.)
            return Some(ClientUpdate {
                delta: vec![0.0; self.global.len()],
                num_samples: indices.len(),
                local_steps: 1,
            });
        }
        let mut model = self.workload.build_trainable(self.seed);
        model.set_param_vector(&self.global);
        let mut sgd = Sgd::new(self.lr).with_clip_norm(5.0);
        let mut rng = SmallRng::seed_from_u64(round_seed ^ (device.0 as u64).wrapping_mul(0x9e37));

        // FedProx proximal pull and FEDL linear term need the anchor.
        let anchor = self.global.clone();
        let fedl_grad = match self.algorithm {
            AggregationAlgorithm::Fedl { .. } if !self.prev_global_grad.is_empty() => {
                Some(self.prev_global_grad.clone())
            }
            _ => None,
        };

        // `fraction` already folds in the local epochs E: fraction 1.0 of
        // one epoch's batches times E is the nominal step count; partial
        // updates run a prefix.
        let batches_per_epoch = indices.len().div_ceil(batch_size).max(1);
        let steps = ((batches_per_epoch as f64) * fraction).ceil().max(1.0) as usize;

        let mut taken = 0usize;
        'outer: loop {
            for (x, mut y) in self.data.train.minibatches(indices, batch_size, &mut rng) {
                if taken >= steps {
                    break 'outer;
                }
                // Label-flipping poisoner: trains on y → C−1−y, producing
                // a well-formed but misdirected delta — the *actual*
                // corrupted update enters aggregation below.
                if role == AdversaryRole::Poisoner {
                    let c = self.data.train.num_classes();
                    for label in &mut y {
                        *label = c - 1 - *label;
                    }
                }
                let logits = model.forward(&x, true);
                let (_, grad) = autofl_nn::loss::softmax_cross_entropy(&logits, &y);
                model.zero_grad();
                let _ = model.backward(&grad);
                // Algorithm-specific gradient shaping.
                match self.algorithm {
                    AggregationAlgorithm::FedProx { mu } => {
                        let mut off = 0;
                        model.visit_params(&mut |p, g| {
                            for (i, (gv, pv)) in
                                g.data_mut().iter_mut().zip(p.data().iter()).enumerate()
                            {
                                *gv += mu * (pv - anchor[off + i]);
                            }
                            off += p.len();
                        });
                    }
                    AggregationAlgorithm::Fedl { eta } => {
                        if let Some(gg) = &fedl_grad {
                            let mut off = 0;
                            model.visit_params(&mut |p, g| {
                                for (i, gv) in g.data_mut().iter_mut().enumerate() {
                                    *gv += eta * gg[off + i];
                                }
                                off += p.len();
                            });
                        }
                    }
                    _ => {}
                }
                sgd.step(&mut model);
                taken += 1;
            }
            if taken >= steps {
                break;
            }
        }

        let after = model.param_vector();
        let mut delta: Vec<f32> = after
            .iter()
            .zip(self.global.iter())
            .map(|(a, g)| a - g)
            .collect();
        // Scaled-gradient attacker: honest training, delta blown up (or
        // inverted) by the configured factor on the way out.
        if role == AdversaryRole::Scaler {
            let factor = self.adversary.map_or(1.0, |a| a.scale_factor) as f32;
            for d in &mut delta {
                *d *= factor;
            }
        }
        Some(ClientUpdate {
            delta,
            num_samples: indices.len(),
            local_steps: taken,
        })
    }
}

impl AccuracyEngine for RealTrainingEngine {
    fn accuracy(&self) -> f64 {
        self.acc
    }

    fn apply_round(&mut self, stats: &CohortStats) -> f64 {
        // Unique per round (not merely per cohort size): reusing a round
        // seed would replay identical minibatch orderings every round.
        let round_seed = self
            .seed
            .wrapping_mul(0xa076_1d64_78bd_642f)
            .wrapping_add(self.rounds_applied.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_add(stats.participants.len() as u64);
        // The codec's stochastic-rounding streams are keyed on the
        // aggregation step (not the dispatch round — under the async
        // runtime several cohorts may share a step), matching how this
        // engine keys its own minibatch seeds.
        let agg_step = self.rounds_applied as usize;
        self.rounds_applied += 1;
        // Local epochs scale the work fraction: fraction 1.0 means E
        // epochs. Every client trains against the same frozen global
        // snapshot with its own RNG stream (seeded from round and device
        // id), so local training fans out across the pool and the
        // updates — collected in participant order — are bit-identical at
        // any thread count.
        let this: &Self = self;
        let mut maybe_updates: Vec<Option<ClientUpdate>> = (0..stats.participants.len())
            .into_par_iter()
            .map(|i| {
                let work = stats.update_fractions[i] * stats.local_epochs as f64;
                this.train_client(stats.participants[i], work, stats.batch_size, round_seed)
            })
            .collect();
        // Fabric codec: each delta takes the real encode→decode round
        // trip before it touches the aggregator (so FEDL's gradient
        // estimate sees the transported bits too). Per-device tagged
        // streams (`TAG_CODEC`), sequential in participant order —
        // bit-identical at any thread or shard count.
        if let Some(codec) = &self.codec {
            for (i, update) in maybe_updates.iter_mut().enumerate() {
                if let Some(u) = update {
                    let mut rng =
                        crate::fabric::codec_stream(self.seed, agg_step, stats.participants[i].0);
                    codec.transcode(&mut u.delta, agg_step, &mut rng);
                }
            }
        }
        let updates: Vec<ClientUpdate> = maybe_updates.into_iter().flatten().collect();
        if updates.is_empty() {
            return self.acc;
        }
        // FEDL global-gradient estimate: step-normalised average delta
        // scaled by -1/lr (delta ≈ -lr Σ grads).
        let mut gg = vec![0.0f32; self.global.len()];
        for u in &updates {
            let w = 1.0 / (updates.len() as f32 * u.local_steps.max(1) as f32 * self.lr);
            for (g, d) in gg.iter_mut().zip(u.delta.iter()) {
                *g -= w * d;
            }
        }
        self.prev_global_grad = gg;
        // Two-level hierarchical aggregation: per-shard exact partial
        // sums combined in shard order — bit-equal to flat FedAvg at any
        // shard count (the exact-summation contract in `algorithms`).
        self.algorithm
            .aggregate_sharded(&mut self.global, &updates, self.shards);
        self.acc = self.evaluate();
        self.acc
    }

    fn name(&self) -> &'static str {
        "real-training"
    }

    fn state_snapshot(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("acc".to_string(), self.acc.to_value()),
            ("global".to_string(), self.global.to_value()),
            (
                "prev_global_grad".to_string(),
                self.prev_global_grad.to_value(),
            ),
            ("rounds_applied".to_string(), self.rounds_applied.to_value()),
        ])
    }

    fn state_restore(&mut self, value: &serde::Value) -> Result<(), serde::Error> {
        let global: Vec<f32> = serde::field(value, "global")?;
        if global.len() != self.global.len() {
            return Err(serde::Error::custom(format!(
                "global model has {} parameters, checkpoint holds {}",
                self.global.len(),
                global.len()
            ))
            .at("global"));
        }
        self.acc = serde::field(value, "acc")?;
        self.global = global;
        self.prev_global_grad = serde::field(value, "prev_global_grad")?;
        self.rounds_applied = serde::field(value, "rounds_applied")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autofl_data::partition::DataDistribution;

    fn ideal_stats(k: usize, samples: f64) -> CohortStats {
        CohortStats {
            participants: (0..k).map(DeviceId).collect(),
            update_fractions: vec![1.0; k],
            effective_samples: samples,
            class_coverage: 1.0,
            divergence: 0.05,
            mean_member_divergence: 0.05,
            local_epochs: 5,
            batch_size: 16,
            poison: 0.0,
        }
    }

    #[test]
    fn surrogate_converges_on_ideal_cohorts() {
        let mut e = SurrogateEngine::new(
            Workload::CnnMnist,
            AggregationAlgorithm::FedAvg,
            4000.0,
            5.0,
            1,
        );
        for _ in 0..400 {
            e.apply_round(&ideal_stats(20, 4000.0));
        }
        assert!(
            e.accuracy() > e.profile().target_accuracy,
            "stalled at {}",
            e.accuracy()
        );
    }

    #[test]
    fn surrogate_stalls_on_skewed_cohorts() {
        let mut e = SurrogateEngine::new(
            Workload::CnnMnist,
            AggregationAlgorithm::FedAvg,
            4000.0,
            5.0,
            2,
        );
        let skewed = CohortStats {
            class_coverage: 0.35,
            divergence: 1.5,
            mean_member_divergence: 1.6,
            ..ideal_stats(20, 4000.0)
        };
        for _ in 0..1000 {
            e.apply_round(&skewed);
        }
        assert!(
            e.accuracy() < e.profile().target_accuracy,
            "skewed cohort should not converge, got {}",
            e.accuracy()
        );
    }

    #[test]
    fn robust_algorithms_tolerate_heterogeneity_better() {
        let run = |alg: AggregationAlgorithm| {
            let mut e = SurrogateEngine::new(Workload::CnnMnist, alg, 4000.0, 5.0, 3);
            let stats = CohortStats {
                class_coverage: 0.6,
                divergence: 0.9,
                mean_member_divergence: 1.3,
                ..ideal_stats(20, 4000.0)
            };
            for _ in 0..300 {
                e.apply_round(&stats);
            }
            e.accuracy()
        };
        let fedavg = run(AggregationAlgorithm::FedAvg);
        let fednova = run(AggregationAlgorithm::FedNova);
        assert!(
            fednova > fedavg + 0.02,
            "FedNova {} vs FedAvg {}",
            fednova,
            fedavg
        );
    }

    #[test]
    fn surrogate_more_samples_converges_faster() {
        let rounds_to = |samples: f64| {
            let mut e = SurrogateEngine::new(
                Workload::TinyTest,
                AggregationAlgorithm::FedAvg,
                1000.0,
                5.0,
                4,
            );
            for r in 0..1000 {
                e.apply_round(&ideal_stats(10, samples));
                if e.accuracy() >= e.profile().target_accuracy {
                    return r;
                }
            }
            1000
        };
        assert!(rounds_to(1000.0) < rounds_to(100.0));
    }

    #[test]
    fn real_training_improves_accuracy_on_tiny_workload() {
        let data = FlData::generate(Workload::TinyTest, 4, 24, 64, DataDistribution::IidIdeal, 5);
        let mut e = RealTrainingEngine::new(
            Workload::TinyTest,
            data,
            AggregationAlgorithm::FedAvg,
            0.08,
            64,
            5,
            1,
            None,
            None,
        );
        let start = e.accuracy();
        let stats = CohortStats {
            participants: (0..4).map(DeviceId).collect(),
            update_fractions: vec![1.0; 4],
            effective_samples: 96.0,
            class_coverage: 1.0,
            divergence: 0.0,
            mean_member_divergence: 0.0,
            local_epochs: 2,
            batch_size: 16,
            poison: 0.0,
        };
        for _ in 0..10 {
            e.apply_round(&stats);
        }
        assert!(
            e.accuracy() > start + 0.2,
            "accuracy {} -> {}",
            start,
            e.accuracy()
        );
    }
}
