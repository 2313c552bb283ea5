//! Fluent construction and validation of simulations.
//!
//! [`SimBuilder`] is the supported way to configure an experiment:
//!
//! ```
//! use autofl_fed::engine::Simulation;
//! use autofl_fed::global::GlobalParams;
//! use autofl_fed::selection::RandomSelector;
//! use autofl_nn::zoo::Workload;
//!
//! let mut sim = Simulation::builder(Workload::TinyTest)
//!     .devices(12)
//!     .params(GlobalParams::new(8, 1, 4))
//!     .samples_per_device(24)
//!     .test_samples(48)
//!     .max_rounds(60)
//!     .seed(1)
//!     .build()
//!     .expect("valid configuration");
//! let result = sim.run(&mut RandomSelector::new());
//! assert!(result.final_accuracy() > 0.0);
//! ```
//!
//! Every knob starts from the paper-shaped defaults of
//! [`SimConfig::paper_default`], so a builder chain only names what an
//! experiment changes. [`SimBuilder::build`] rejects inconsistent
//! configurations with a typed [`ConfigError`] instead of panicking deep
//! inside the engine; the same checks run on configurations deserialized
//! from spec files via [`SimConfig::validate`].

use crate::adversary::AdversaryConfig;
use crate::algorithms::AggregationAlgorithm;
use crate::engine::{Fidelity, SimConfig, Simulation};
use crate::fabric::{CodecSpec, NetworkFabric};
use crate::fleet::{FleetDynamics, StragglerPolicy};
use crate::global::GlobalParams;
use crate::runtime::AsyncRuntime;
use autofl_data::partition::DataDistribution;
use autofl_device::scenario::VarianceScenario;
use autofl_nn::zoo::Workload;

/// Why a configuration cannot be simulated.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// The fleet is empty.
    NoDevices,
    /// More participants per round than devices in the fleet.
    ParticipantsExceedFleet {
        /// Participants per round `K`.
        participants: usize,
        /// Fleet size `N`.
        devices: usize,
    },
    /// A global parameter (`B`, `E` or `K`) is zero.
    ZeroGlobalParam,
    /// Devices hold no training samples.
    NoSamples,
    /// The fleet, or the training samples it holds in all
    /// (`devices × samples_per_device`), exceeds `u32::MAX`, the most
    /// the data partition and the fleet store index.
    FleetTooLarge {
        /// Fleet size `N`.
        devices: usize,
        /// Training samples per device.
        samples_per_device: usize,
    },
    /// A device's per-round training work — `E × samples_per_device ×`
    /// the workload's training FLOPs per sample — overflows `u64`.
    LocalWorkOverflow {
        /// Local epochs `E`.
        local_epochs: usize,
        /// Training samples per device.
        samples_per_device: usize,
    },
    /// No held-out test samples.
    NoTestSamples,
    /// The horizon is zero rounds.
    NoRounds,
    /// The shard count is zero (at least one shard must exist; values
    /// above the fleet size are merely clamped).
    NoShards,
    /// The straggler deadline factor is below 1 or not finite.
    BadDeadlineFactor(f64),
    /// The convergence target is non-positive or not finite.
    BadTargetAccuracy(f64),
    /// Real-training fidelity with a non-positive learning rate.
    BadLearningRate(f32),
    /// Real-training fidelity with zero evaluation samples.
    NoEvalSamples,
    /// A non-IID fraction outside `[0, 1]` or a non-positive Dirichlet
    /// concentration.
    BadDistribution {
        /// Fraction of non-IID devices.
        fraction_non_iid: f64,
        /// Dirichlet concentration α.
        alpha: f64,
    },
    /// A variance probability outside `[0, 1]`.
    BadVarianceProbability(f64),
    /// A fleet-dynamics probability (charging, foreground, offline,
    /// mid-round drop) outside `[0, 1]`.
    BadFleetProbability(f64),
    /// An inconsistent state-of-charge pair: bounds outside `[0, 1]` or
    /// `low > high` (initial SoC range, or reserve vs. eligibility SoC).
    BadSocRange {
        /// The lower bound (initial minimum, or reserve SoC).
        low: f64,
        /// The upper bound (initial maximum, or eligibility SoC).
        high: f64,
    },
    /// A fleet-dynamics rate or scale that must be finite and
    /// non-negative (capacity scale additionally positive) is not.
    BadFleetRate(f64),
    /// A `WaitBounded` grace factor below 1 or not finite.
    BadWaitFactor(f64),
    /// `OverSelect` would select more participants than the fleet holds.
    OverSelectExceedsFleet {
        /// `K + extra` participants per round.
        selected: usize,
        /// Fleet size `N`.
        devices: usize,
    },
    /// The async runtime's aggregation buffer holds zero updates
    /// (use `buffer_size: None` for the full barrier instead).
    NoBufferCapacity,
    /// A staleness exponent that is negative or not finite.
    BadStalenessExponent(f64),
    /// The async runtime keeps zero cohorts in flight, so no round
    /// would ever dispatch.
    NoConcurrency,
    /// A network-fabric link parameter (latency mean/spread, weak-signal
    /// factor) that must be finite and non-negative is not.
    BadLinkParameter(f64),
    /// A network-fabric drop probability outside `[0, 1]`.
    BadDropProbability(f64),
    /// A sparsifying codec's kept fraction outside `(0, 1]`.
    BadCodecFraction(f64),
    /// A periodic full-sync cadence of zero rounds (omit `full_sync_every`
    /// to disable full syncs instead).
    NoSyncPeriod,
    /// A partition rule with an empty round span, an empty device span,
    /// or a device span reaching past the fleet.
    BadPartitionRule {
        /// First partitioned round (inclusive).
        from_round: usize,
        /// First round after the partition heals (exclusive).
        until_round: usize,
        /// First unreachable device id (inclusive).
        device_begin: usize,
        /// First reachable device id after the span (exclusive).
        device_end: usize,
    },
    /// An adversary role fraction outside `[0, 1]`, or role fractions
    /// summing past 1.
    BadAdversaryFraction(f64),
    /// A scaled-gradient attack factor that is non-finite, zero, or
    /// absurdly large.
    BadScaleFactor(f64),
    /// A trimmed-mean trim fraction outside `[0, 0.5)` (each end must
    /// keep a strict majority of values).
    BadTrimFraction(f64),
    /// A flat-only aggregation rule (no exact per-shard combine exists —
    /// [`AggregationAlgorithm::exact_sharded`]) paired with `shards > 1`.
    FlatOnlyAggregator {
        /// The offending rule's name.
        algorithm: &'static str,
        /// The configured shard count.
        shards: usize,
    },
    /// A convergence-control target (per-round energy budget or accuracy
    /// floor) that is non-positive or not finite.
    BadControlTarget(f64),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NoDevices => write!(f, "the fleet must contain at least one device"),
            ConfigError::ParticipantsExceedFleet {
                participants,
                devices,
            } => write!(
                f,
                "K = {participants} participants per round exceeds the fleet of {devices} devices"
            ),
            ConfigError::ZeroGlobalParam => {
                write!(f, "global parameters (B, E, K) must all be positive")
            }
            ConfigError::NoSamples => write!(f, "samples_per_device must be positive"),
            ConfigError::FleetTooLarge {
                devices,
                samples_per_device,
            } => write!(
                f,
                "{devices} devices × {samples_per_device} samples per device exceed \
                 the limit of {} devices and {} samples in all",
                u32::MAX,
                u32::MAX
            ),
            ConfigError::LocalWorkOverflow {
                local_epochs,
                samples_per_device,
            } => write!(
                f,
                "E = {local_epochs} local epochs over {samples_per_device} samples per \
                 device overflow the per-round training FLOP count"
            ),
            ConfigError::NoTestSamples => write!(f, "test_samples must be positive"),
            ConfigError::NoRounds => write!(f, "max_rounds must be positive"),
            ConfigError::NoShards => write!(f, "shards must be positive (1 = unsharded)"),
            ConfigError::BadDeadlineFactor(v) => write!(
                f,
                "straggler_deadline_factor must be finite and >= 1, got {v}"
            ),
            ConfigError::BadTargetAccuracy(v) => {
                write!(f, "target_accuracy must be finite and positive, got {v}")
            }
            ConfigError::BadLearningRate(v) => {
                write!(f, "real-training learning rate must be positive, got {v}")
            }
            ConfigError::NoEvalSamples => {
                write!(f, "real-training eval_samples must be positive")
            }
            ConfigError::BadDistribution {
                fraction_non_iid,
                alpha,
            } => write!(
                f,
                "non-IID distribution needs fraction in [0, 1] and alpha > 0, \
                 got fraction {fraction_non_iid}, alpha {alpha}"
            ),
            ConfigError::BadVarianceProbability(v) => {
                write!(f, "variance probabilities must lie in [0, 1], got {v}")
            }
            ConfigError::BadFleetProbability(v) => {
                write!(
                    f,
                    "fleet-dynamics probabilities must lie in [0, 1], got {v}"
                )
            }
            ConfigError::BadSocRange { low, high } => write!(
                f,
                "state-of-charge bounds must lie in [0, 1] with low <= high, \
                 got [{low}, {high}]"
            ),
            ConfigError::BadFleetRate(v) => write!(
                f,
                "fleet-dynamics rates must be finite and non-negative \
                 (capacity scale positive), got {v}"
            ),
            ConfigError::BadWaitFactor(v) => write!(
                f,
                "WaitBounded grace factor must be finite and >= 1, got {v}"
            ),
            ConfigError::OverSelectExceedsFleet { selected, devices } => write!(
                f,
                "OverSelect asks for {selected} participants per round but \
                 the fleet has only {devices} devices"
            ),
            ConfigError::NoBufferCapacity => write!(
                f,
                "async runtime buffer_size must hold at least one update \
                 (None = full barrier)"
            ),
            ConfigError::BadStalenessExponent(v) => write!(
                f,
                "async runtime staleness_exponent must be finite and >= 0, got {v}"
            ),
            ConfigError::NoConcurrency => {
                write!(f, "async runtime concurrent_cohorts must be positive")
            }
            ConfigError::BadLinkParameter(v) => write!(
                f,
                "network link parameters must be finite and non-negative, got {v}"
            ),
            ConfigError::BadDropProbability(v) => {
                write!(f, "network drop probability must lie in [0, 1], got {v}")
            }
            ConfigError::BadCodecFraction(v) => {
                write!(f, "codec kept fraction k_frac must lie in (0, 1], got {v}")
            }
            ConfigError::NoSyncPeriod => write!(
                f,
                "full_sync_every must be at least one round (None = never full-sync)"
            ),
            ConfigError::BadPartitionRule {
                from_round,
                until_round,
                device_begin,
                device_end,
            } => write!(
                f,
                "partition rule needs from_round < until_round and \
                 device_begin < device_end <= fleet size, got rounds \
                 [{from_round}, {until_round}) over devices \
                 [{device_begin}, {device_end})"
            ),
            ConfigError::BadAdversaryFraction(v) => write!(
                f,
                "adversary role fractions must each lie in [0, 1] and sum \
                 to at most 1, got {v}"
            ),
            ConfigError::BadScaleFactor(v) => write!(
                f,
                "adversary scale_factor must be finite, nonzero and \
                 |factor| <= 1e6, got {v}"
            ),
            ConfigError::BadTrimFraction(v) => write!(
                f,
                "trimmed-mean trim fraction must lie in [0, 0.5), got {v}"
            ),
            ConfigError::FlatOnlyAggregator { algorithm, shards } => write!(
                f,
                "{algorithm} is flat-only (no exact per-shard combine \
                 exists) and cannot run with shards = {shards}; use \
                 shards = 1"
            ),
            ConfigError::BadControlTarget(v) => write!(
                f,
                "convergence control budget or floor must be finite and positive, got {v}"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

impl SimConfig {
    /// Checks the configuration for the inconsistencies [`ConfigError`]
    /// enumerates. Runs automatically in [`SimBuilder::build`] and on
    /// every spec-file load.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.num_devices == 0 {
            return Err(ConfigError::NoDevices);
        }
        if self.params.batch_size == 0
            || self.params.local_epochs == 0
            || self.params.num_participants == 0
        {
            return Err(ConfigError::ZeroGlobalParam);
        }
        if self.params.num_participants > self.num_devices {
            return Err(ConfigError::ParticipantsExceedFleet {
                participants: self.params.num_participants,
                devices: self.num_devices,
            });
        }
        if self.samples_per_device == 0 {
            return Err(ConfigError::NoSamples);
        }
        // `Partition::new` and `FleetStore::new` index with `u32`; refuse
        // here what they would refuse only after allocating the fleet.
        let samples = self
            .num_devices
            .checked_mul(self.samples_per_device)
            .and_then(|s| u32::try_from(s).ok());
        if u32::try_from(self.num_devices).is_err() || samples.is_none() {
            return Err(ConfigError::FleetTooLarge {
                devices: self.num_devices,
                samples_per_device: self.samples_per_device,
            });
        }
        // Every device holds `samples_per_device` samples, so this is the
        // largest product `RoundContext::task_for` forms.
        let work = (self.params.local_epochs as u64)
            .checked_mul(self.samples_per_device as u64)
            .and_then(|w| w.checked_mul(self.workload.reference_training_flops_per_sample()));
        if work.is_none() {
            return Err(ConfigError::LocalWorkOverflow {
                local_epochs: self.params.local_epochs,
                samples_per_device: self.samples_per_device,
            });
        }
        if self.test_samples == 0 {
            return Err(ConfigError::NoTestSamples);
        }
        if self.max_rounds == 0 {
            return Err(ConfigError::NoRounds);
        }
        if self.shards == 0 {
            return Err(ConfigError::NoShards);
        }
        if !self.straggler_deadline_factor.is_finite() || self.straggler_deadline_factor < 1.0 {
            return Err(ConfigError::BadDeadlineFactor(
                self.straggler_deadline_factor,
            ));
        }
        if let Some(target) = self.target_accuracy {
            // Targets above 1 are allowed on purpose: they mean "never
            // converge", which the figure sweeps use to record the full
            // horizon.
            if !target.is_finite() || target <= 0.0 {
                return Err(ConfigError::BadTargetAccuracy(target));
            }
        }
        if let Fidelity::RealTraining { lr, eval_samples } = self.fidelity {
            if !lr.is_finite() || lr <= 0.0 {
                return Err(ConfigError::BadLearningRate(lr));
            }
            if eval_samples == 0 {
                return Err(ConfigError::NoEvalSamples);
            }
        }
        if let DataDistribution::NonIid {
            fraction_non_iid,
            alpha,
        } = self.distribution
        {
            if !(0.0..=1.0).contains(&fraction_non_iid) || !alpha.is_finite() || alpha <= 0.0 {
                return Err(ConfigError::BadDistribution {
                    fraction_non_iid,
                    alpha,
                });
            }
        }
        for p in [
            self.scenario.interference_prob,
            self.scenario.weak_network_prob,
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(ConfigError::BadVarianceProbability(p));
            }
        }
        if let Some(fleet) = &self.fleet {
            for p in [
                fleet.charge_prob,
                fleet.foreground_prob,
                fleet.offline_prob,
                fleet.mid_round_drop_prob,
            ] {
                if !(0.0..=1.0).contains(&p) {
                    return Err(ConfigError::BadFleetProbability(p));
                }
            }
            let soc = |v: f64| (0.0..=1.0).contains(&v);
            if !soc(fleet.initial_soc_min)
                || !soc(fleet.initial_soc_max)
                || fleet.initial_soc_min > fleet.initial_soc_max
            {
                return Err(ConfigError::BadSocRange {
                    low: fleet.initial_soc_min,
                    high: fleet.initial_soc_max,
                });
            }
            if !soc(fleet.reserve_soc) || !soc(fleet.min_soc) || fleet.reserve_soc > fleet.min_soc {
                return Err(ConfigError::BadSocRange {
                    low: fleet.reserve_soc,
                    high: fleet.min_soc,
                });
            }
            for r in [
                fleet.charge_rate_per_s,
                fleet.idle_drain_per_s,
                fleet.heat_per_s,
                fleet.cool_per_s,
            ] {
                if !r.is_finite() || r < 0.0 {
                    return Err(ConfigError::BadFleetRate(r));
                }
            }
            if !fleet.battery_capacity_scale.is_finite() || fleet.battery_capacity_scale <= 0.0 {
                return Err(ConfigError::BadFleetRate(fleet.battery_capacity_scale));
            }
            match fleet.straggler {
                StragglerPolicy::Drop => {}
                StragglerPolicy::WaitBounded { grace } => {
                    if !grace.is_finite() || grace < 1.0 {
                        return Err(ConfigError::BadWaitFactor(grace));
                    }
                }
                StragglerPolicy::OverSelect { extra } => {
                    let selected = self.params.num_participants.saturating_add(extra);
                    if selected > self.num_devices {
                        return Err(ConfigError::OverSelectExceedsFleet {
                            selected,
                            devices: self.num_devices,
                        });
                    }
                }
            }
        }
        if let Some(rt) = &self.runtime {
            if rt.buffer_size == Some(0) {
                return Err(ConfigError::NoBufferCapacity);
            }
            if !rt.staleness_exponent.is_finite() || rt.staleness_exponent < 0.0 {
                return Err(ConfigError::BadStalenessExponent(rt.staleness_exponent));
            }
            if rt.concurrent_cohorts == 0 {
                return Err(ConfigError::NoConcurrency);
            }
        }
        if let Some(net) = &self.network {
            for v in [
                net.link.latency_mean_s,
                net.link.latency_std_s,
                net.link.weak_latency_factor,
                net.link.weak_drop_factor,
            ] {
                if !v.is_finite() || v < 0.0 {
                    return Err(ConfigError::BadLinkParameter(v));
                }
            }
            if !(0.0..=1.0).contains(&net.link.drop_prob) {
                return Err(ConfigError::BadDropProbability(net.link.drop_prob));
            }
            match net.codec {
                CodecSpec::Identity | CodecSpec::Int8Quant => {}
                CodecSpec::TopK { k_frac } | CodecSpec::TopKInt8 { k_frac } => {
                    if !k_frac.is_finite() || k_frac <= 0.0 || k_frac > 1.0 {
                        return Err(ConfigError::BadCodecFraction(k_frac));
                    }
                }
            }
            if net.full_sync_every == Some(0) {
                return Err(ConfigError::NoSyncPeriod);
            }
            for rule in &net.partitions.rules {
                if rule.from_round >= rule.until_round
                    || rule.device_begin >= rule.device_end
                    || rule.device_end > self.num_devices
                {
                    return Err(ConfigError::BadPartitionRule {
                        from_round: rule.from_round,
                        until_round: rule.until_round,
                        device_begin: rule.device_begin,
                        device_end: rule.device_end,
                    });
                }
            }
        }
        if let AggregationAlgorithm::TrimmedMean { trim } = self.algorithm {
            if !trim.is_finite() || !(0.0..0.5).contains(&trim) {
                return Err(ConfigError::BadTrimFraction(trim));
            }
        }
        if !self.algorithm.exact_sharded() && self.shards > 1 {
            return Err(ConfigError::FlatOnlyAggregator {
                algorithm: self.algorithm.name(),
                shards: self.shards,
            });
        }
        if let Some(adv) = &self.adversary {
            let fractions = [
                adv.poisoner_fraction,
                adv.scaler_fraction,
                adv.free_rider_fraction,
                adv.faulty_sensor_fraction,
            ];
            for f in fractions {
                if !f.is_finite() || !(0.0..=1.0).contains(&f) {
                    return Err(ConfigError::BadAdversaryFraction(f));
                }
            }
            let total: f64 = fractions.iter().sum();
            if total > 1.0 {
                return Err(ConfigError::BadAdversaryFraction(total));
            }
            let s = adv.scale_factor;
            if !s.is_finite() || s == 0.0 || s.abs() > 1e6 {
                return Err(ConfigError::BadScaleFactor(s));
            }
        }
        Ok(())
    }
}

/// Fluent, validating constructor for [`Simulation`]s — see the
/// [module-level example](self).
#[derive(Debug, Clone)]
pub struct SimBuilder {
    config: SimConfig,
}

impl SimBuilder {
    /// Starts from the paper-shaped defaults for `workload`
    /// ([`SimConfig::paper_default`]).
    pub fn new(workload: Workload) -> Self {
        SimBuilder {
            config: SimConfig::paper_default(workload),
        }
    }

    /// Fleet size `N` (the paper's 15/35/50% tier mix is kept at any
    /// scale).
    #[must_use]
    pub fn devices(mut self, n: usize) -> Self {
        self.config.num_devices = n;
        self
    }

    /// Number of contiguous device shards for the per-device stores and
    /// the hierarchical aggregation tree (default 1). Purely a layout /
    /// parallelism knob: results are bit-identical at every value.
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.config.shards = shards;
        self
    }

    /// The `(B, E, K)` global parameters.
    #[must_use]
    pub fn params(mut self, params: GlobalParams) -> Self {
        self.config.params = params;
        self
    }

    /// Data heterogeneity scenario.
    #[must_use]
    pub fn distribution(mut self, distribution: DataDistribution) -> Self {
        self.config.distribution = distribution;
        self
    }

    /// Runtime-variance scenario.
    #[must_use]
    pub fn scenario(mut self, scenario: VarianceScenario) -> Self {
        self.config.scenario = scenario;
        self
    }

    /// Enables stochastic fleet dynamics (battery, thermal, churn,
    /// mid-round dropout) with the given block.
    #[must_use]
    pub fn fleet_dynamics(mut self, dynamics: FleetDynamics) -> Self {
        self.config.fleet = Some(dynamics);
        self
    }

    /// Disables fleet dynamics (the default): a static, always-available
    /// fleet.
    #[must_use]
    pub fn static_fleet(mut self) -> Self {
        self.config.fleet = None;
        self
    }

    /// Sets how the event scheduler ([`crate::runtime`]) aggregates.
    /// Without a runtime block a run uses [`AsyncRuntime::barrier`]
    /// (synchronous rounds); [`AsyncRuntime::buffered`] enables
    /// FedBuff-style staleness-weighted aggregation.
    #[must_use]
    pub fn runtime(mut self, runtime: AsyncRuntime) -> Self {
        self.config.runtime = Some(runtime);
        self
    }

    /// Attaches a network fabric ([`crate::fabric`]) between dispatch and
    /// aggregation: per-device link latency and loss, scripted partitions,
    /// and a communication-efficient update codec with exact byte
    /// accounting.
    #[must_use]
    pub fn network(mut self, fabric: NetworkFabric) -> Self {
        self.config.network = Some(fabric);
        self
    }

    /// Removes the network fabric (the default): instantaneous, lossless
    /// links and uncompressed updates, bit-identical to the pre-fabric
    /// engine.
    #[must_use]
    pub fn no_network(mut self) -> Self {
        self.config.network = None;
        self
    }

    /// Installs the adversary subsystem: a fraction of the fleet plays
    /// one of the roles in [`crate::adversary::AdversaryRole`], driven on
    /// dedicated tagged RNG streams so results stay bit-reproducible at
    /// any thread or shard count.
    #[must_use]
    pub fn adversary(mut self, adversary: AdversaryConfig) -> Self {
        self.config.adversary = Some(adversary);
        self
    }

    /// Removes the adversary subsystem (the default): every device is
    /// honest and the engine is bit-identical to the pre-adversary tree.
    #[must_use]
    pub fn no_adversary(mut self) -> Self {
        self.config.adversary = None;
        self
    }

    /// Aggregation algorithm.
    #[must_use]
    pub fn algorithm(mut self, algorithm: AggregationAlgorithm) -> Self {
        self.config.algorithm = algorithm;
        self
    }

    /// Accuracy engine (surrogate or real training).
    #[must_use]
    pub fn fidelity(mut self, fidelity: Fidelity) -> Self {
        self.config.fidelity = fidelity;
        self
    }

    /// Mean local training samples per device.
    #[must_use]
    pub fn samples_per_device(mut self, n: usize) -> Self {
        self.config.samples_per_device = n;
        self
    }

    /// Held-out test samples.
    #[must_use]
    pub fn test_samples(mut self, n: usize) -> Self {
        self.config.test_samples = n;
        self
    }

    /// Round deadline as a multiple of the cohort's median completion
    /// time.
    #[must_use]
    pub fn straggler_deadline_factor(mut self, factor: f64) -> Self {
        self.config.straggler_deadline_factor = factor;
        self
    }

    /// Convergence target; values above 1 never trigger, recording the
    /// full horizon.
    #[must_use]
    pub fn target_accuracy(mut self, target: f64) -> Self {
        self.config.target_accuracy = Some(target);
        self
    }

    /// Maximum rounds to simulate.
    #[must_use]
    pub fn max_rounds(mut self, rounds: usize) -> Self {
        self.config.max_rounds = rounds;
        self
    }

    /// Master seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Validates and returns the configuration without building the
    /// simulation (useful for sweeps that clone one base config).
    pub fn build_config(self) -> Result<SimConfig, ConfigError> {
        self.config.validate()?;
        Ok(self.config)
    }

    /// Validates the configuration and builds the simulation.
    pub fn build(self) -> Result<Simulation, ConfigError> {
        self.build_config().map(Simulation::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_match_paper_default() {
        let built = SimBuilder::new(Workload::CnnMnist)
            .build_config()
            .expect("defaults are valid");
        assert_eq!(built, SimConfig::paper_default(Workload::CnnMnist));
    }

    #[test]
    fn builder_reproduces_hand_built_configs_exactly() {
        let mut by_hand = SimConfig::paper_default(Workload::CnnMnist);
        by_hand.scenario = VarianceScenario::with_interference();
        by_hand.max_rounds = 400;
        by_hand.seed = 9;
        let built = Simulation::builder(Workload::CnnMnist)
            .scenario(VarianceScenario::with_interference())
            .max_rounds(400)
            .seed(9)
            .build_config()
            .expect("valid");
        assert_eq!(built, by_hand);
    }

    #[test]
    fn fleets_past_the_u32_limits_are_refused_by_validate_alone() {
        // Only `validate` runs, so nothing here allocates a fleet. Both
        // configurations used to validate and then abort in
        // `Simulation::new`.
        let mut config = SimConfig::paper_default(Workload::CnnMnist);
        for (devices, samples_per_device) in
            [(1usize << 32, 1), (1_000_000, 4_295), (usize::MAX / 2, 3)]
        {
            config.num_devices = devices;
            config.samples_per_device = samples_per_device;
            assert_eq!(
                config.validate(),
                Err(ConfigError::FleetTooLarge {
                    devices,
                    samples_per_device
                })
            );
        }
        for (devices, samples_per_device) in [(1_000_000, 4_294), (u32::MAX as usize, 1)] {
            config.num_devices = devices;
            config.samples_per_device = samples_per_device;
            assert_eq!(config.validate(), Ok(()));
        }
    }

    #[test]
    fn zero_devices_is_rejected() {
        let err = Simulation::builder(Workload::TinyTest)
            .devices(0)
            .build_config()
            .unwrap_err();
        assert_eq!(err, ConfigError::NoDevices);
    }

    #[test]
    fn oversubscribed_k_is_rejected() {
        let err = Simulation::builder(Workload::TinyTest)
            .devices(10)
            .params(GlobalParams::new(8, 1, 20))
            .build_config()
            .unwrap_err();
        assert!(matches!(err, ConfigError::ParticipantsExceedFleet { .. }));
    }

    #[test]
    fn bad_deadline_and_target_are_rejected() {
        assert!(matches!(
            Simulation::builder(Workload::TinyTest)
                .straggler_deadline_factor(0.5)
                .build_config(),
            Err(ConfigError::BadDeadlineFactor(_))
        ));
        assert!(matches!(
            Simulation::builder(Workload::TinyTest)
                .target_accuracy(-0.1)
                .build_config(),
            Err(ConfigError::BadTargetAccuracy(_))
        ));
        // Above-1 targets are the "record the full horizon" idiom.
        assert!(Simulation::builder(Workload::TinyTest)
            .target_accuracy(1.1)
            .build_config()
            .is_ok());
    }

    #[test]
    fn real_training_knobs_are_checked() {
        assert!(matches!(
            Simulation::builder(Workload::TinyTest)
                .fidelity(Fidelity::RealTraining {
                    lr: 0.0,
                    eval_samples: 16,
                })
                .build_config(),
            Err(ConfigError::BadLearningRate(_))
        ));
        assert!(matches!(
            Simulation::builder(Workload::TinyTest)
                .fidelity(Fidelity::RealTraining {
                    lr: 0.1,
                    eval_samples: 0,
                })
                .build_config(),
            Err(ConfigError::NoEvalSamples)
        ));
    }

    /// Every [`ConfigError`] variant is reachable through validation and
    /// renders a non-empty, value-carrying message — no dead variants, no
    /// silent accepts.
    #[test]
    fn every_config_error_variant_is_reachable_and_displayed() {
        let base = SimConfig::tiny_test(1);
        let with_fleet = |f: fn(&mut FleetDynamics)| {
            let mut cfg = base.clone();
            let mut dynamics = FleetDynamics::realistic();
            f(&mut dynamics);
            cfg.fleet = Some(dynamics);
            cfg
        };
        let with_net = |f: fn(&mut NetworkFabric)| {
            let mut cfg = base.clone();
            let mut fabric = NetworkFabric::ideal();
            f(&mut fabric);
            cfg.network = Some(fabric);
            cfg
        };
        let cases: Vec<(SimConfig, ConfigError)> = vec![
            (
                {
                    let mut c = base.clone();
                    c.num_devices = 0;
                    c
                },
                ConfigError::NoDevices,
            ),
            (
                {
                    let mut c = base.clone();
                    c.params.num_participants = 99;
                    c
                },
                ConfigError::ParticipantsExceedFleet {
                    participants: 99,
                    devices: base.num_devices,
                },
            ),
            (
                {
                    let mut c = base.clone();
                    c.params.batch_size = 0;
                    c
                },
                ConfigError::ZeroGlobalParam,
            ),
            (
                {
                    let mut c = base.clone();
                    c.params.local_epochs = 0;
                    c
                },
                ConfigError::ZeroGlobalParam,
            ),
            (
                {
                    let mut c = base.clone();
                    c.samples_per_device = 0;
                    c
                },
                ConfigError::NoSamples,
            ),
            (
                {
                    let mut c = base.clone();
                    c.test_samples = 0;
                    c
                },
                ConfigError::NoTestSamples,
            ),
            (
                {
                    let mut c = base.clone();
                    c.max_rounds = 0;
                    c
                },
                ConfigError::NoRounds,
            ),
            (
                {
                    let mut c = base.clone();
                    c.shards = 0;
                    c
                },
                ConfigError::NoShards,
            ),
            (
                {
                    let mut c = base.clone();
                    c.straggler_deadline_factor = f64::NAN;
                    c
                },
                ConfigError::BadDeadlineFactor(f64::NAN),
            ),
            (
                {
                    let mut c = base.clone();
                    c.target_accuracy = Some(0.0);
                    c
                },
                ConfigError::BadTargetAccuracy(0.0),
            ),
            (
                {
                    let mut c = base.clone();
                    c.fidelity = Fidelity::RealTraining {
                        lr: -1.0,
                        eval_samples: 8,
                    };
                    c
                },
                ConfigError::BadLearningRate(-1.0),
            ),
            (
                {
                    let mut c = base.clone();
                    c.fidelity = Fidelity::RealTraining {
                        lr: 0.1,
                        eval_samples: 0,
                    };
                    c
                },
                ConfigError::NoEvalSamples,
            ),
            (
                {
                    let mut c = base.clone();
                    c.distribution = DataDistribution::NonIid {
                        fraction_non_iid: -0.2,
                        alpha: 0.1,
                    };
                    c
                },
                ConfigError::BadDistribution {
                    fraction_non_iid: -0.2,
                    alpha: 0.1,
                },
            ),
            (
                {
                    let mut c = base.clone();
                    c.scenario.weak_network_prob = 1.5;
                    c
                },
                ConfigError::BadVarianceProbability(1.5),
            ),
            (
                with_fleet(|f| f.mid_round_drop_prob = -0.1),
                ConfigError::BadFleetProbability(-0.1),
            ),
            (
                with_fleet(|f| {
                    f.initial_soc_min = 0.9;
                    f.initial_soc_max = 0.2;
                }),
                ConfigError::BadSocRange {
                    low: 0.9,
                    high: 0.2,
                },
            ),
            (
                with_fleet(|f| {
                    f.reserve_soc = 0.5;
                    f.min_soc = 0.1;
                }),
                ConfigError::BadSocRange {
                    low: 0.5,
                    high: 0.1,
                },
            ),
            (
                with_fleet(|f| f.charge_rate_per_s = -1e-3),
                ConfigError::BadFleetRate(-1e-3),
            ),
            (
                with_fleet(|f| f.battery_capacity_scale = 0.0),
                ConfigError::BadFleetRate(0.0),
            ),
            (
                with_fleet(|f| f.straggler = StragglerPolicy::WaitBounded { grace: 0.5 }),
                ConfigError::BadWaitFactor(0.5),
            ),
            (
                with_fleet(|f| f.straggler = StragglerPolicy::OverSelect { extra: 1000 }),
                ConfigError::OverSelectExceedsFleet {
                    selected: 1004,
                    devices: base.num_devices,
                },
            ),
            (
                {
                    let mut c = base.clone();
                    c.runtime = Some(AsyncRuntime::buffered(0, 0.5));
                    c
                },
                ConfigError::NoBufferCapacity,
            ),
            (
                {
                    let mut c = base.clone();
                    c.runtime = Some(AsyncRuntime::buffered(4, f64::NAN));
                    c
                },
                ConfigError::BadStalenessExponent(f64::NAN),
            ),
            (
                {
                    let mut c = base.clone();
                    c.runtime = Some(AsyncRuntime::barrier().concurrent_cohorts(0));
                    c
                },
                ConfigError::NoConcurrency,
            ),
            (
                with_net(|n| n.link.latency_mean_s = -0.5),
                ConfigError::BadLinkParameter(-0.5),
            ),
            (
                with_net(|n| n.link.drop_prob = 1.5),
                ConfigError::BadDropProbability(1.5),
            ),
            (
                with_net(|n| n.codec = CodecSpec::TopK { k_frac: 0.0 }),
                ConfigError::BadCodecFraction(0.0),
            ),
            (
                with_net(|n| n.full_sync_every = Some(0)),
                ConfigError::NoSyncPeriod,
            ),
            (
                with_net(|n| {
                    n.partitions =
                        crate::fabric::PartitionSchedule::single(crate::fabric::PartitionRule {
                            from_round: 5,
                            until_round: 5,
                            device_begin: 0,
                            device_end: 4,
                        })
                }),
                ConfigError::BadPartitionRule {
                    from_round: 5,
                    until_round: 5,
                    device_begin: 0,
                    device_end: 4,
                },
            ),
            (
                {
                    let mut c = base.clone();
                    let mut adv = AdversaryConfig::poisoning(0.3);
                    adv.poisoner_fraction = -0.1;
                    c.adversary = Some(adv);
                    c
                },
                ConfigError::BadAdversaryFraction(-0.1),
            ),
            (
                {
                    let mut c = base.clone();
                    let mut adv = AdversaryConfig::poisoning(0.6);
                    adv.free_rider_fraction = 0.6;
                    c.adversary = Some(adv);
                    c
                },
                ConfigError::BadAdversaryFraction(1.2),
            ),
            (
                {
                    let mut c = base.clone();
                    let mut adv = AdversaryConfig::poisoning(0.3);
                    adv.scale_factor = 0.0;
                    c.adversary = Some(adv);
                    c
                },
                ConfigError::BadScaleFactor(0.0),
            ),
            (
                {
                    let mut c = base.clone();
                    c.algorithm = AggregationAlgorithm::TrimmedMean { trim: 0.5 };
                    c
                },
                ConfigError::BadTrimFraction(0.5),
            ),
            (
                {
                    let mut c = base.clone();
                    c.algorithm = AggregationAlgorithm::Krum;
                    c.shards = 4;
                    c
                },
                ConfigError::FlatOnlyAggregator {
                    algorithm: "Krum",
                    shards: 4,
                },
            ),
        ];
        let control = crate::serve::ConvergeTarget::EnergyBudget {
            joules_per_round: -250.0,
        };
        let results = cases
            .into_iter()
            .map(|(config, expected)| (config.validate(), expected))
            .chain([(control.validate(), ConfigError::BadControlTarget(-250.0))]);
        for (result, expected) in results {
            let err = result.expect_err(&format!("{expected:?}"));
            // NaN payloads compare unequal; match on the discriminant
            // formatting instead.
            assert_eq!(
                std::mem::discriminant(&err),
                std::mem::discriminant(&expected),
                "got {err:?}, expected {expected:?}"
            );
            assert!(!err.to_string().is_empty(), "{err:?} renders empty");
        }
    }

    #[test]
    fn fleet_dynamics_defaults_validate_and_builder_roundtrips() {
        let cfg = Simulation::builder(Workload::TinyTest)
            .fleet_dynamics(FleetDynamics::realistic())
            .build_config()
            .expect("realistic dynamics are valid");
        assert_eq!(cfg.fleet, Some(FleetDynamics::realistic()));
        let cfg = Simulation::builder(Workload::TinyTest)
            .fleet_dynamics(FleetDynamics::realistic())
            .static_fleet()
            .build_config()
            .expect("static fleet is valid");
        assert_eq!(cfg.fleet, None);
    }

    #[test]
    fn overselect_boundary_matches_the_engine_clamp() {
        // K + extra == N is the largest provisioning validation accepts;
        // the engine's dispatch clamp then binds only on the *eligible*
        // pool under fleet dynamics, never on the fleet size — so
        // validation and runtime agree at the boundary.
        let at = |devices: usize, k: usize, extra: usize| {
            Simulation::builder(Workload::TinyTest)
                .devices(devices)
                .params(GlobalParams::new(8, 1, k))
                .fleet_dynamics(
                    FleetDynamics::realistic().straggler(StragglerPolicy::OverSelect { extra }),
                )
                .build_config()
        };
        assert!(at(12, 8, 4).is_ok(), "K + extra == N must validate");
        assert_eq!(
            at(12, 8, 5).unwrap_err(),
            ConfigError::OverSelectExceedsFleet {
                selected: 13,
                devices: 12,
            }
        );
    }

    #[test]
    fn runtime_block_validates_and_builder_roundtrips() {
        let cfg = Simulation::builder(Workload::TinyTest)
            .runtime(AsyncRuntime::buffered(4, 0.5).concurrent_cohorts(2))
            .build_config()
            .expect("buffered runtime is valid");
        assert_eq!(
            cfg.runtime,
            Some(AsyncRuntime::buffered(4, 0.5).concurrent_cohorts(2))
        );
    }

    #[test]
    fn network_block_validates_and_builder_roundtrips() {
        let fabric = NetworkFabric::new(crate::fabric::LinkModel::calm())
            .with_codec(CodecSpec::TopK { k_frac: 0.1 })
            .with_full_sync(25);
        let cfg = Simulation::builder(Workload::TinyTest)
            .network(fabric.clone())
            .build_config()
            .expect("calm fabric with TopK is valid");
        assert_eq!(cfg.network, Some(fabric));
        let cfg = Simulation::builder(Workload::TinyTest)
            .network(NetworkFabric::ideal())
            .no_network()
            .build_config()
            .expect("no_network is valid");
        assert_eq!(cfg.network, None);
        // Partition spans past the fleet are rejected, in-fleet spans pass.
        let rule = |end| crate::fabric::PartitionRule {
            from_round: 2,
            until_round: 6,
            device_begin: 0,
            device_end: end,
        };
        let at = |end| {
            Simulation::builder(Workload::TinyTest)
                .network(
                    NetworkFabric::ideal()
                        .with_partitions(crate::fabric::PartitionSchedule::single(rule(end))),
                )
                .build_config()
        };
        let devices = SimConfig::paper_default(Workload::TinyTest).num_devices;
        assert!(at(devices).is_ok(), "span reaching exactly N must validate");
        assert!(matches!(
            at(devices + 1),
            Err(ConfigError::BadPartitionRule { .. })
        ));
    }

    #[test]
    fn adversary_block_validates_and_builder_roundtrips() {
        let adv = AdversaryConfig::mixed(0.3);
        let cfg = Simulation::builder(Workload::TinyTest)
            .adversary(adv)
            .algorithm(AggregationAlgorithm::Median)
            .build_config()
            .expect("a mixed 30% adversary under Median is valid");
        assert_eq!(cfg.adversary, Some(adv));
        let cfg = Simulation::builder(Workload::TinyTest)
            .adversary(adv)
            .no_adversary()
            .build_config()
            .expect("no_adversary is valid");
        assert_eq!(cfg.adversary, None);
        // Krum is flat-only; one shard passes, several are rejected.
        let at = |shards| {
            Simulation::builder(Workload::TinyTest)
                .algorithm(AggregationAlgorithm::Krum)
                .shards(shards)
                .build_config()
        };
        assert!(at(1).is_ok(), "Krum at shards = 1 must validate");
        assert!(matches!(
            at(2),
            Err(ConfigError::FlatOnlyAggregator {
                algorithm: "Krum",
                shards: 2,
            })
        ));
    }

    #[test]
    fn malformed_deserialized_configs_are_caught() {
        // Bypasses GlobalParams::new, as a hand-edited spec file would.
        let mut cfg = SimConfig::tiny_test(1);
        cfg.params.num_participants = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroGlobalParam));

        let mut cfg = SimConfig::tiny_test(1);
        cfg.distribution = DataDistribution::NonIid {
            fraction_non_iid: 1.5,
            alpha: 0.1,
        };
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::BadDistribution { .. })
        ));
    }
}
