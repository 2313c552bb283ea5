//! The FL simulation engine: rounds, straggler handling, energy accounting
//! and convergence metrics.

use crate::accuracy::{
    AccuracyEngine, CohortStats, ConvergenceProfile, RealTrainingEngine, SurrogateEngine,
};
use crate::adversary::{AdversaryConfig, AdversaryRole};
use crate::algorithms::AggregationAlgorithm;
use crate::conditions::ConditionsView;
use crate::estimate::{fleet_idle_energy_j, participant_costs};
use crate::fabric::{NetworkFabric, RoundNetStats};
use crate::fleet::{AvailabilityView, FleetDynamics, FleetStore, ShardBin, StragglerPolicy};
use crate::global::GlobalParams;
use crate::selection::{RoundContext, RoundFeedback, SelectionDecision, Selector};
use autofl_data::partition::DataDistribution;
use autofl_data::FlData;
use autofl_device::cost::{ExecutionPlan, TrainingTask};
use autofl_device::fleet::{DeviceId, Fleet};
use autofl_device::scenario::{Conditions, VarianceScenario};
use autofl_device::tier::DeviceTier;
use autofl_nn::zoo::Workload;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Which accuracy engine drives convergence.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum Fidelity {
    /// Calibrated learning-curve surrogate (fast; used by figure sweeps).
    #[default]
    Surrogate,
    /// Real training of the scaled-down model (ground truth; slower).
    RealTraining {
        /// Client SGD learning rate.
        lr: f32,
        /// Max test samples used per evaluation.
        eval_samples: usize,
    },
}

/// Full configuration of one simulated FL deployment.
///
/// Prefer building configurations through [`Simulation::builder`] (or the
/// `tiny_test`/`smoke`/`paper_default` profiles): the builder validates
/// before the engine runs, and spec files deserialize straight into this
/// type. Struct-literal construction is considered an internal detail of
/// this crate and may lose field-by-field stability in a future release.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// The FL use case.
    pub workload: Workload,
    /// `(B, E, K)`.
    pub params: GlobalParams,
    /// Data heterogeneity scenario.
    pub distribution: DataDistribution,
    /// Runtime-variance scenario.
    pub scenario: VarianceScenario,
    /// Stochastic fleet dynamics (battery, thermal, churn, mid-round
    /// dropout and the straggler policy). `None` — the default — keeps
    /// the fleet static and reproduces pre-dynamics runs bit for bit.
    pub fleet: Option<FleetDynamics>,
    /// How the event scheduler ([`crate::runtime`]) aggregates: the full
    /// barrier, or FedBuff-style buffered aggregation with cohorts in
    /// flight concurrently ([`crate::runtime::AsyncRuntime`]). `None` —
    /// the default — reads as [`crate::runtime::AsyncRuntime::barrier`]:
    /// synchronous rounds, one cohort in flight (see
    /// `docs/async-runtime.md`). Deserializes to `None` when absent from
    /// serialized specs, so pre-runtime spec files keep loading.
    pub runtime: Option<crate::runtime::AsyncRuntime>,
    /// Network fabric between dispatch and aggregation: per-device link
    /// latency/loss, scripted partitions and update codecs
    /// ([`crate::fabric`]). `None` — the default — bypasses every fabric
    /// code path and reproduces pre-fabric runs bit for bit. Deserializes
    /// to `None` when absent from serialized specs.
    pub network: Option<NetworkFabric>,
    /// Adversarial fleet roles (label-flipping poisoners, scaled-gradient
    /// attackers, free-riders, faulty sensors — [`crate::adversary`]).
    /// `None` — the default — bypasses every adversary code path and
    /// reproduces honest-fleet runs bit for bit. Deserializes to `None`
    /// when absent from serialized specs.
    pub adversary: Option<AdversaryConfig>,
    /// Aggregation algorithm.
    pub algorithm: AggregationAlgorithm,
    /// Accuracy engine.
    pub fidelity: Fidelity,
    /// Fleet size `N`.
    pub num_devices: usize,
    /// Number of contiguous device shards the per-device stores (and the
    /// hierarchical aggregation tree) are split into. Purely a layout /
    /// parallelism / topology knob: results are bit-identical at every
    /// value (clamped to `[1, N]`). Rule of thumb for large fleets:
    /// a few shards per worker thread (see `docs/scaling.md`).
    pub shards: usize,
    /// Mean local training samples per device.
    pub samples_per_device: usize,
    /// Held-out test samples.
    pub test_samples: usize,
    /// Round deadline as a multiple of the cohort's median completion
    /// time; participants beyond it are stragglers.
    pub straggler_deadline_factor: f64,
    /// Convergence threshold; `None` uses the workload profile's target.
    pub target_accuracy: Option<f64>,
    /// Maximum rounds to simulate.
    pub max_rounds: usize,
    /// Master seed.
    pub seed: u64,
}

impl SimConfig {
    /// A paper-shaped configuration: 200 devices, S3 parameters, FedAvg,
    /// ideal IID data, calm runtime, surrogate accuracy.
    pub fn paper_default(workload: Workload) -> Self {
        SimConfig {
            workload,
            params: GlobalParams::s3(),
            distribution: DataDistribution::IidIdeal,
            scenario: VarianceScenario::calm(),
            fleet: None,
            runtime: None,
            network: None,
            adversary: None,
            algorithm: AggregationAlgorithm::FedAvg,
            fidelity: Fidelity::Surrogate,
            num_devices: 200,
            shards: 1,
            samples_per_device: 300,
            test_samples: 512,
            straggler_deadline_factor: 2.0,
            target_accuracy: None,
            max_rounds: 1000,
            seed: 42,
        }
    }

    /// A miniature configuration for fast tests: few devices, tiny
    /// workload data, short horizon.
    pub fn tiny_test(seed: u64) -> Self {
        SimConfig {
            workload: Workload::TinyTest,
            params: GlobalParams::new(8, 1, 4),
            distribution: DataDistribution::IidIdeal,
            scenario: VarianceScenario::calm(),
            fleet: None,
            runtime: None,
            network: None,
            adversary: None,
            algorithm: AggregationAlgorithm::FedAvg,
            fidelity: Fidelity::Surrogate,
            num_devices: 12,
            shards: 1,
            samples_per_device: 24,
            test_samples: 48,
            straggler_deadline_factor: 2.0,
            target_accuracy: None,
            max_rounds: 60,
            seed,
        }
    }

    /// A reduced smoke profile: paper-shaped behaviour (same 15/35/50%
    /// tier mix, S3 parameters, surrogate accuracy, CNN-MNIST) at a
    /// fraction of the fleet and horizon, so end-to-end checks finish in
    /// well under a second. Deterministic in `seed`.
    pub fn smoke(seed: u64) -> Self {
        SimConfig {
            num_devices: 40,
            samples_per_device: 120,
            test_samples: 256,
            max_rounds: 250,
            seed,
            ..Self::paper_default(Workload::CnnMnist)
        }
    }

    /// The effective convergence target.
    pub fn target(&self) -> f64 {
        self.target_accuracy
            .unwrap_or_else(|| ConvergenceProfile::for_workload(self.workload).target_accuracy)
    }
}

/// Everything measured in one aggregation round.
///
/// The opt-in subsystem fields — `net` (network fabric) and
/// `adversarial`/`flagged` (adversary roles) — are *omitted* from
/// serialized records, not `null`, when their subsystem is off, so
/// subsystem-less round traces stay byte-identical to earlier releases
/// (pinned by the golden `smoke_trace.jsonl`). Absent fields deserialize
/// to `None`, so older traces keep loading.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RoundRecord {
    /// Round index (0-based).
    pub round: usize,
    /// Selected participants.
    pub participants: Vec<DeviceId>,
    /// Execution plans, aligned with `participants`.
    pub plans: Vec<ExecutionPlan>,
    /// Wall-clock duration of the round in seconds.
    pub round_time_s: f64,
    /// Active energy of participants in joules.
    pub active_energy_j: f64,
    /// Idle energy of non-participants in joules.
    pub idle_energy_j: f64,
    /// Test accuracy after aggregation.
    pub accuracy: f64,
    /// Participants dropped as stragglers (FedAvg) this round.
    pub dropped: Vec<DeviceId>,
    /// Fraction of nominal work each participant's aggregated update
    /// represents (0 for dropped participants and dropouts).
    pub update_fractions: Vec<f64>,
    /// Participants that vanished mid-round (battery death or
    /// connectivity churn); disjoint from `dropped`. Empty unless
    /// [`SimConfig::fleet`] dynamics are enabled.
    pub dropouts: Vec<DeviceId>,
    /// Devices that failed the eligibility check-in before selection.
    pub ineligible: usize,
    /// Logical time at which this round's cohort was dispatched: the
    /// scheduler clock at dispatch, in simulated seconds since the start
    /// of the run. With one cohort in flight (the barrier) this is the
    /// cumulative duration of all earlier rounds.
    pub dispatch_time_s: f64,
    /// Logical time at which this round's cohort completed (its record
    /// was emitted): `dispatch_time_s + round_time_s`. Monotone in
    /// emission order; with concurrent cohorts, completion order may
    /// differ from dispatch order.
    pub logical_time_s: f64,
    /// Mean staleness (in aggregation versions) of this cohort's updates
    /// at the moment they were aggregated. Always 0 under the full
    /// barrier.
    pub mean_staleness: f64,
    /// Network-fabric accounting (bytes, drops, partitions). `Some` iff
    /// [`SimConfig::network`] is attached.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub net: Option<RoundNetStats>,
    /// Number of *adversarial* devices (any non-honest role) among this
    /// round's participants. `Some` iff [`SimConfig::adversary`] is
    /// attached.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub adversarial: Option<usize>,
    /// Number of adversarial updates the server-side defenses neutralised
    /// this round: free-riders' zero-mass updates always count; poisoners
    /// and scalers count iff the configured aggregator has positive
    /// [`AggregationAlgorithm::poison_robustness`]. `Some` iff
    /// [`SimConfig::adversary`] is attached.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub flagged: Option<usize>,
}

impl RoundRecord {
    /// Total energy of the round (Eq. 6).
    pub fn total_energy_j(&self) -> f64 {
        self.active_energy_j + self.idle_energy_j
    }

    /// Participants whose updates were aggregated (positive update
    /// fraction), in participant order.
    pub fn survivors(&self) -> Vec<DeviceId> {
        self.participants
            .iter()
            .zip(&self.update_fractions)
            .filter(|(_, &f)| f > 0.0)
            .map(|(id, _)| *id)
            .collect()
    }
}

/// Aggregated result of a simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimResult {
    /// Policy that produced the run.
    pub policy: String,
    /// The convergence target used.
    pub target_accuracy: f64,
    /// Per-round records.
    pub records: Vec<RoundRecord>,
}

impl SimResult {
    /// First round (0-based) whose accuracy reached the target.
    pub fn converged_round(&self) -> Option<usize> {
        self.records
            .iter()
            .position(|r| r.accuracy >= self.target_accuracy)
    }

    /// Whether the run reached the target within the horizon.
    pub fn converged(&self) -> bool {
        self.converged_round().is_some()
    }

    /// The records up to and including the converged round (the whole
    /// run if it never converged): the effective horizon the
    /// time-to-target figures sum over.
    fn to_target(&self) -> &[RoundRecord] {
        let upto = self
            .converged_round()
            .map(|r| r + 1)
            .unwrap_or(self.records.len());
        &self.records[..upto]
    }

    /// Simulated seconds until convergence (or the whole run if it never
    /// converged).
    pub fn time_to_target_s(&self) -> f64 {
        self.to_target().iter().map(|r| r.round_time_s).sum()
    }

    /// Total energy in joules until convergence (or the whole run).
    pub fn energy_to_target_j(&self) -> f64 {
        self.to_target().iter().map(|r| r.total_energy_j()).sum()
    }

    /// Active (participant-side) energy until convergence.
    pub fn local_energy_to_target_j(&self) -> f64 {
        self.to_target().iter().map(|r| r.active_energy_j).sum()
    }

    /// Final test accuracy.
    pub fn final_accuracy(&self) -> f64 {
        self.records.last().map(|r| r.accuracy).unwrap_or(0.0)
    }

    /// Best accuracy seen.
    pub fn best_accuracy(&self) -> f64 {
        self.records.iter().map(|r| r.accuracy).fold(0.0, f64::max)
    }

    /// Convergence progress in `[0, 1]`: best accuracy relative to target.
    pub fn progress(&self) -> f64 {
        (self.best_accuracy() / self.target_accuracy).min(1.0)
    }

    /// Global performance-per-watt figure of merit: progress per joule of
    /// cluster energy. Ratios of this quantity are the paper's "PPW
    /// improvement" numbers; non-converged runs are penalised through both
    /// lower progress and the full-horizon energy.
    pub fn ppw_global(&self) -> f64 {
        self.progress() / self.energy_to_target_j().max(1e-9)
    }

    /// Local performance-per-watt: progress per joule of participant
    /// (active) energy.
    pub fn ppw_local(&self) -> f64 {
        self.progress() / self.local_energy_to_target_j().max(1e-9)
    }

    /// Mean round time in seconds over the effective horizon.
    pub fn mean_round_time_s(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        let records = self.to_target();
        records.iter().map(|r| r.round_time_s).sum::<f64>() / records.len() as f64
    }
}

/// Reusable per-round working memory. Everything here is overwritten at
/// the start of (or during) each round, so holding it on the
/// [`Simulation`] turns per-round `Vec` rebuilds into amortised-free
/// buffer reuse — the round hot loop allocates only what escapes into the
/// returned [`RoundRecord`].
#[derive(Debug, Default)]
struct RoundScratch {
    /// Per-participant training tasks.
    tasks: Vec<TrainingTask>,
    /// Per-device tiers, one byte-sized entry per device in fleet order.
    /// Filled once on first use: the idle-energy walk reads this compact
    /// array instead of re-reading whole `Device` structs every round.
    tiers: Vec<DeviceTier>,
    /// Sort buffer for the participant ids: the cohort check at dispatch
    /// and the idle-energy walk.
    participant_ids: Vec<usize>,
    /// Sort buffer for the median.
    median: Vec<f64>,
    /// Fleet-sized reachability mask under active network partitions
    /// (eligible *and* not partitioned). Only touched when a fabric with
    /// an active partition rule is attached.
    reachable: Vec<bool>,
    /// Shard bins with per-bin eligible counts recomputed under the
    /// partition mask, backing [`AvailabilityView::Masked`].
    masked_bins: Vec<ShardBin>,
    /// Per-participant adversary roles, in participant order. Only
    /// touched when an adversary config is attached.
    roles: Vec<AdversaryRole>,
}

/// A dispatched cohort between check-in/execution
/// ([`Simulation::dispatch_round`]) and the aggregation, lifecycle and
/// feedback steps that complete it ([`Simulation::complete_cohort`]):
/// the record it will become, plus what the record does not keep. The
/// event scheduler ([`crate::runtime`]) holds it in flight until its
/// upload and completion events fire. Serializable so a checkpoint
/// ([`crate::serve`]) can capture cohorts that are in flight when the
/// process dies.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct DispatchOutcome {
    /// The cohort's record. Dispatch writes every field except
    /// `dispatch_time_s`, which the scheduler stamps at launch, and the
    /// four that completion writes: `accuracy`, `logical_time_s`,
    /// `mean_staleness` and `idle_energy_j`, which stay 0.0 until then.
    pub record: RoundRecord,
    /// Global accuracy at dispatch time (before this cohort aggregates).
    pub prev_accuracy: f64,
    /// Per-participant completion times (deadline-clamped, dropout-truncated).
    pub completion: Vec<f64>,
    /// Per-participant active energy actually burned.
    pub per_participant_energy: Vec<f64>,
    /// The codec's surrogate update-quality multiplier for this round.
    /// Exactly `1.0` without a fabric (or on full-sync rounds), so
    /// multiplying update fractions by it is bit-exact a no-op.
    pub codec_fidelity: f64,
}

/// The simulation: owns the fleet, the data, the accuracy engine and the
/// per-round stochastic state.
pub struct Simulation {
    config: SimConfig,
    fleet: Fleet,
    data: FlData,
    engine: Box<dyn AccuracyEngine>,
    rng: SmallRng,
    scratch: RoundScratch,
    /// Per-device lifecycle state; `Some` iff `config.fleet` is enabled.
    fleet_state: Option<FleetStore>,
    /// The round driver's state ([`crate::runtime`]): pending events,
    /// cohorts in flight and the dispatch cursor that
    /// [`Simulation::step`] advances.
    pub(crate) sched: crate::runtime::Scheduler,
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("workload", &self.config.workload.name())
            .field("devices", &self.fleet.len())
            .finish()
    }
}

impl Simulation {
    /// Starts a validating [`crate::builder::SimBuilder`] from the
    /// paper-shaped defaults for `workload` — the supported way to
    /// configure an experiment.
    ///
    /// # Examples
    ///
    /// ```
    /// use autofl_fed::engine::Simulation;
    /// use autofl_fed::selection::RandomSelector;
    /// use autofl_nn::zoo::Workload;
    ///
    /// let mut sim = Simulation::builder(Workload::CnnMnist)
    ///     .devices(1_000)   // the paper's 15/35/50% tier mix at any N
    ///     .shards(4)        // layout/parallelism only: results are bit-identical
    ///     .samples_per_device(16)
    ///     .max_rounds(3)
    ///     .target_accuracy(1.1)
    ///     .seed(42)
    ///     .build()
    ///     .expect("a consistent configuration");
    /// let result = sim.run(&mut RandomSelector::new());
    /// assert_eq!(result.records.len(), 3);
    /// ```
    ///
    /// Inconsistent configurations are rejected with a typed
    /// [`crate::builder::ConfigError`] instead of panicking inside the
    /// engine:
    ///
    /// ```
    /// use autofl_fed::builder::ConfigError;
    /// use autofl_fed::engine::Simulation;
    /// use autofl_nn::zoo::Workload;
    ///
    /// let err = Simulation::builder(Workload::CnnMnist)
    ///     .shards(0)
    ///     .build_config()
    ///     .unwrap_err();
    /// assert_eq!(err, ConfigError::NoShards);
    /// ```
    pub fn builder(workload: Workload) -> crate::builder::SimBuilder {
        crate::builder::SimBuilder::new(workload)
    }

    /// Builds a simulation from a configuration (deterministic in
    /// `config.seed`).
    pub fn new(config: SimConfig) -> Self {
        let (h, m, l) = tier_mix(config.num_devices);
        let fleet = Fleet::custom(
            &[
                (DeviceTier::High, h),
                (DeviceTier::Mid, m),
                (DeviceTier::Low, l),
            ],
            config.seed,
        );
        // The surrogate engine never touches sample features — only the
        // partition statistics — so surrogate runs build a labels-only
        // dataset. At a million devices this is the difference between
        // megabytes and many gigabytes of synthetic pixels (and the
        // labels, hence the partition, are identical either way).
        let data = match config.fidelity {
            Fidelity::Surrogate => FlData::generate_stats_only(
                config.workload,
                config.num_devices,
                config.samples_per_device,
                config.test_samples,
                config.distribution,
                config.seed,
            ),
            Fidelity::RealTraining { .. } => FlData::generate(
                config.workload,
                config.num_devices,
                config.samples_per_device,
                config.test_samples,
                config.distribution,
                config.seed,
            ),
        };
        let engine: Box<dyn AccuracyEngine> = match config.fidelity {
            Fidelity::Surrogate => Box::new(SurrogateEngine::new(
                config.workload,
                config.algorithm,
                (config.params.num_participants * config.samples_per_device) as f64,
                config.params.local_epochs as f64,
                config.seed ^ 0xacc,
            )),
            Fidelity::RealTraining { lr, eval_samples } => Box::new(RealTrainingEngine::new(
                config.workload,
                data.clone(),
                config.algorithm,
                lr,
                eval_samples,
                config.seed,
                config.shards,
                config.network.as_ref().map(|f| f.build_codec()),
                config.adversary,
            )),
        };
        let rng = SmallRng::seed_from_u64(config.seed ^ 0x51b);
        let fleet_state = config.fleet.as_ref().map(|dynamics| {
            FleetStore::new(dynamics, &fleet, config.seed ^ 0xf1ee7, config.shards)
        });
        Simulation {
            config,
            fleet,
            data,
            engine,
            rng,
            scratch: RoundScratch::default(),
            fleet_state,
            sched: crate::runtime::Scheduler::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The fleet.
    pub fn fleet(&self) -> &Fleet {
        &self.fleet
    }

    /// The federated dataset.
    pub fn data(&self) -> &FlData {
        &self.data
    }

    /// Current global accuracy.
    pub fn accuracy(&self) -> f64 {
        self.engine.accuracy()
    }

    /// Closes out a cohort whose completion event fired, after the
    /// scheduler has stamped its record's accuracy, completion time and
    /// staleness: charges the idle fleet, hands the lifecycle update to
    /// the fleet store ([`FleetStore::hold_end_round`]) and feeds the
    /// outcome back to `selector`. Returns the finished record.
    pub(crate) fn complete_cohort(
        &mut self,
        outcome: DispatchOutcome,
        selector: &mut dyn Selector,
    ) -> RoundRecord {
        let DispatchOutcome {
            mut record,
            prev_accuracy,
            completion,
            per_participant_energy,
            ..
        } = outcome;
        if self.scratch.tiers.len() != self.fleet.len() {
            self.scratch.tiers = self.fleet.iter().map(|d| d.tier()).collect();
        }
        record.idle_energy_j = fleet_idle_energy_j(
            &mut self.scratch.participant_ids,
            self.scratch.tiers.iter().copied(),
            &record.participants,
            record.round_time_s,
        );
        // Non-members idle-cool over the round; members pay what the
        // round actually cost them (battery drain, heating). The store
        // holds the update and applies it at the head of the next begin
        // pass.
        if let (Some(dynamics), Some(state)) = (&self.config.fleet, &mut self.fleet_state) {
            state.hold_end_round(
                dynamics,
                &self.fleet,
                record.round_time_s,
                &record.participants,
                &completion,
                &per_participant_energy,
            );
        }
        let idle_per_device = if self.fleet.len() > record.participants.len() {
            record.idle_energy_j / (self.fleet.len() - record.participants.len()) as f64
        } else {
            0.0
        };
        selector.observe(&RoundFeedback {
            round: record.round,
            participants: &record.participants,
            per_participant_energy_j: &per_participant_energy,
            idle_energy_per_device_j: idle_per_device,
            global_energy_j: record.total_energy_j(),
            round_time_s: record.round_time_s,
            accuracy: record.accuracy,
            prev_accuracy,
            dropped: &record.dropped,
            dropouts: &record.dropouts,
            mean_staleness: record.mean_staleness,
            bytes_uplinked: record.net.map_or(0, |n| n.bytes_uplinked),
        });
        record
    }

    /// Check-in, selection and execution of cohort `round` — everything
    /// up to (but not including) aggregation, lifecycle advancement and
    /// feedback, which the scheduler ([`crate::runtime`]) defers to the
    /// cohort's upload and completion events. Called in strictly
    /// increasing round order, so the sequential engine RNG consumes
    /// draws identically under every runtime.
    pub(crate) fn dispatch_round(
        &mut self,
        selector: &mut dyn Selector,
        round: usize,
    ) -> DispatchOutcome {
        // 0. Fleet dynamics: evolve per-device lifecycle sessions
        // (charging, foreground, connectivity) shard-parallel and refresh
        // the stored availability. Disabled dynamics report every device
        // as ideal through a storage-free view, reproducing the static
        // fleet bit for bit.
        let ineligible = match (&self.config.fleet, &mut self.fleet_state) {
            (Some(dynamics), Some(store)) => store.begin_round(dynamics, &self.fleet, round),
            _ => 0,
        };

        // 1. Per-device runtime conditions, derived when read: a device's
        // conditions are a pure function of its (seed, round, id) stream,
        // the thermal throttle its lifecycle carries and — for what it
        // reports — the faulty-sensor lie on its `(seed, TAG_ADV, round +
        // 1, id)` stream, so the round never samples the whole fleet.
        // Selection (and through it the AutoFL state bins) reads the
        // reported view; cost execution and link draws read the truth.
        let truth = ConditionsView::new(
            self.config.scenario,
            &self.fleet,
            round_stream_seed(self.config.seed, round),
            self.fleet_state.as_ref(),
        );
        let reported = match &self.config.adversary {
            Some(adv) => truth.reported(adv, self.config.seed, round),
            None => truth,
        };

        let base_availability = match &self.fleet_state {
            Some(store) => AvailabilityView::Dynamic(store),
            None => AvailabilityView::Ideal {
                devices: self.fleet.len(),
            },
        };
        // 1b. Scripted network partitions: devices inside an active rule
        // cannot reach the server this round, so they fail check-in on
        // top of whatever the fleet dynamics decided. Rounds without an
        // active rule (and every run without a fabric) use the base view
        // untouched — no mask is built, no allocation happens.
        let partition_active = self
            .config
            .network
            .as_ref()
            .is_some_and(|f| f.partitions.is_active(round));
        let mut partitioned = 0usize;
        let availability = if partition_active {
            let fabric = self.config.network.as_ref().expect("partition_active");
            self.scratch.reachable.clear();
            self.scratch.reachable.resize(self.fleet.len(), false);
            self.scratch.masked_bins.clear();
            self.scratch.masked_bins.extend(base_availability.bins());
            let mut count = 0usize;
            for bin in &mut self.scratch.masked_bins {
                let mut eligible_in_bin = 0usize;
                for j in 0..bin.len {
                    let id = bin.offset + j;
                    let ok = base_availability.is_eligible(id)
                        && !fabric.partitions.unreachable(round, id);
                    self.scratch.reachable[id] = ok;
                    eligible_in_bin += ok as usize;
                }
                bin.eligible = eligible_in_bin;
                count += eligible_in_bin;
            }
            partitioned = base_availability.eligible_count() - count;
            AvailabilityView::Masked {
                eligible: &self.scratch.reachable,
                bins: &self.scratch.masked_bins,
                count,
                store: self.fleet_state.as_ref(),
            }
        } else {
            base_availability
        };

        // 2. Ask the policy for participants + execution plans. Under
        // OverSelect the context advertises K + extra so every policy
        // over-provisions without knowing about the straggler layer.
        // The advertisement is clamped to the round's *eligible* pool:
        // validation already rejects K + extra > N, so the fleet size
        // never binds, but under dynamics fewer than K + extra devices
        // may have checked in — advertising more than the pool holds
        // would promise a cohort no policy can realise (and skew
        // learning selectors that scale rewards by the advertised K).
        let prev_accuracy = self.engine.accuracy();
        let params = match self.config.fleet.as_ref().map(|f| f.straggler) {
            Some(StragglerPolicy::OverSelect { extra }) => {
                let mut p = self.config.params;
                p.num_participants = p
                    .num_participants
                    .saturating_add(extra)
                    .min(availability.eligible_count());
                p
            }
            _ => self.config.params,
        };
        let ctx = RoundContext {
            round,
            fleet: &self.fleet,
            conditions: &reported,
            availability,
            partition: &self.data.partition,
            params: &params,
            workload: self.config.workload,
            layer_counts: self.config.workload.reference_layer_counts(),
            prev_accuracy,
        };
        let SelectionDecision {
            mut participants,
            plans,
        } = selector.select(&ctx, &mut self.rng);
        assert_eq!(participants.len(), plans.len(), "selector plan mismatch");
        check_cohort(
            &mut self.scratch.participant_ids,
            &participants,
            self.fleet.len(),
            selector.name(),
        );
        // Selectors often cut the cohort out of a fleet-sized list (a
        // shuffle or a top-K); the round's record keeps this vector, so it
        // must not keep that list's capacity too.
        participants.shrink_to_fit();
        // Per-participant adversary roles — a pure function of
        // `(seed, device)`, so any thread or shard count computes the
        // same assignment. Empty (and never read) without an adversary.
        self.scratch.roles.clear();
        if let Some(adv) = &self.config.adversary {
            self.scratch.roles.extend(
                participants
                    .iter()
                    .map(|id| adv.role_of(self.config.seed, id.0)),
            );
        }
        // Task construction is two field reads per participant; the heavy
        // per-device work (cost execution) fans out inside participant_costs.
        self.scratch.tasks.clear();
        self.scratch
            .tasks
            .extend(participants.iter().map(|id| ctx.task_for(*id)));
        // 2b. Fabric codec: the uplink carries the *encoded* update, so
        // the communication time/energy path (Eq. 3) prices the exact
        // encoded byte count and compression savings flow into PPW.
        let network = self.config.network.as_ref();
        let model_params = (self.config.workload.reference_model_bytes() / 4) as usize;
        let encoded_bytes = network.map(|f| f.encoded_bytes(model_params, round));
        let codec_fidelity = network.map_or(1.0, |f| f.fidelity(round));
        if let Some(bytes) = encoded_bytes {
            for task in &mut self.scratch.tasks {
                task.upload_bytes = bytes;
            }
        }

        // 3. Execute: per-device costs (parallel fan-out), straggler
        // deadline, drops/partials. The engine reduces times and energies
        // itself with deadline clamping; the idle fleet is charged when
        // the cohort completes.
        let costs = participant_costs(
            &self.fleet,
            &participants,
            &plans,
            &self.scratch.tasks,
            &truth,
        );
        let mut completion: Vec<f64> = costs.iter().map(|c| c.total_time_s()).collect();
        // 3a. Free-riders skip local training entirely: their round is
        // pure communication (they still download the model and upload a
        // zero-work update), so their completion time — and, in step 4,
        // their energy — is comm-only. Applied before the link-latency
        // draw and the deadline median, exactly like fast compute.
        if self.config.adversary.is_some() {
            for (i, c) in completion.iter_mut().enumerate() {
                if self.scratch.roles[i] == AdversaryRole::FreeRider {
                    *c = costs[i].comm_time_s;
                }
            }
        }
        // 3b. Fabric link: per-participant latency and loss drawn on the
        // tagged `(seed, TAG_NET, round, id)` streams of
        // `docs/determinism.md`. Latency lands in the completion time
        // *before* the median, so a slow link makes a straggler exactly
        // like slow compute does; the loss coin is applied after the
        // mid-round dropouts below.
        let mut net_lost: Vec<bool> = Vec::new();
        if let Some(fabric) = self.config.network.as_ref() {
            net_lost.resize(participants.len(), false);
            for (i, id) in participants.iter().enumerate() {
                let mut link_rng = crate::fabric::net_stream(self.config.seed, round, id.0);
                let weak =
                    truth.get(id.0).network.signal == autofl_device::network::SignalStrength::Weak;
                let draw = fabric
                    .link
                    .draw(self.fleet.device(*id).tier(), weak, &mut link_rng);
                completion[i] += draw.latency_s;
                net_lost[i] = draw.dropped;
            }
        }
        // The deadline is *projected*: the median of the completion times
        // the server estimates at dispatch, before any mid-round dropout
        // truncates a device's actual runtime. This is deliberate — a
        // real server sets the round deadline when it hands out work and
        // cannot foresee that a device will die at 10% of the round, so
        // a dropout still contributes its full projected time to the
        // median. Pinned by `deadline_is_projected_not_truncated_by_dropouts`.
        let mut deadline = median_into(&mut self.scratch.median, &completion)
            * self.config.straggler_deadline_factor;
        if let Some(StragglerPolicy::WaitBounded { grace }) =
            self.config.fleet.as_ref().map(|f| f.straggler)
        {
            // Bounded waiting: the server holds the round open longer
            // before cutting stragglers.
            deadline *= grace;
        }
        let accepts_partial = self.config.algorithm.accepts_partial_updates();
        let mut dropped = Vec::new();
        let mut dropouts = Vec::new();
        let mut fractions = vec![1.0f64; participants.len()];
        // Share of the full-round energy each participant actually burned
        // (1.0 unless it left early or was cut at the deadline).
        let mut energy_shares = vec![1.0f64; participants.len()];
        let mut is_dropout = vec![false; participants.len()];
        // (a) Mid-round dropouts: battery death or connectivity churn
        // removes the update entirely; the device still burned energy for
        // the fraction of the round it survived.
        if let (Some(dynamics), Some(state)) = (&self.config.fleet, &self.fleet_state) {
            for i in 0..participants.len() {
                if let Some(frac) = state.mid_round_dropout(
                    dynamics,
                    &self.fleet,
                    round,
                    participants[i],
                    costs[i].total_energy_j(),
                ) {
                    fractions[i] = 0.0;
                    energy_shares[i] = frac;
                    completion[i] *= frac;
                    is_dropout[i] = true;
                    dropouts.push(participants[i]);
                }
            }
        }
        // (c) Fabric message loss: the device trained and transmitted —
        // full energy, full completion time — but its upload was lost on
        // the wire, so it contributes no update. Routed through the
        // dropout path so downstream accounting (records, feedback,
        // lifecycle) needs no new case; devices that already died
        // mid-round never transmitted, so their loss coin is moot.
        let mut net_drops = 0usize;
        for i in 0..net_lost.len() {
            if net_lost[i] && !is_dropout[i] {
                fractions[i] = 0.0;
                is_dropout[i] = true;
                dropouts.push(participants[i]);
                net_drops += 1;
            } else {
                net_lost[i] = false;
            }
        }
        // (b) Straggler deadline over the devices that are still there.
        for i in 0..completion.len() {
            if is_dropout[i] {
                // A dropout never gates the round past the deadline.
                completion[i] = completion[i].min(deadline);
                continue;
            }
            let t = completion[i];
            if t > deadline {
                if accepts_partial {
                    // Straggler submits whatever fraction of local steps it
                    // finished before the deadline (communication still
                    // happens, modelled inside the fraction).
                    fractions[i] = (deadline / t).clamp(0.05, 1.0);
                    completion[i] = deadline;
                    energy_shares[i] = fractions[i];
                } else {
                    fractions[i] = 0.0;
                    dropped.push(participants[i]);
                    completion[i] = deadline; // it burned energy until cut off
                    energy_shares[i] = (deadline / t).clamp(0.0, 1.0);
                }
            }
        }
        let round_time_s = completion.iter().copied().fold(0.0, f64::max).max(1e-9);

        // 4. Active-energy accounting: participants pay active energy
        // scaled by the share of work they performed (Eq. 5 selected
        // branch). Summed in participant order (never first-come) so the
        // totals are bit-identical at any thread count upstream.
        let mut per_participant_energy = Vec::with_capacity(costs.len());
        let mut active_energy_j = 0.0;
        for (i, cost) in costs.iter().enumerate() {
            // A free-rider burned no compute: it pays the uplink/downlink
            // energy only (Eq. 3 without the Eq. 2 compute term).
            let base = if self.config.adversary.is_some()
                && self.scratch.roles[i] == AdversaryRole::FreeRider
            {
                cost.comm_energy_j
            } else {
                cost.total_energy_j()
            };
            let e = base * energy_shares[i];
            active_energy_j += e;
            per_participant_energy.push(e);
        }

        // Byte accounting: everyone who actually transmitted pays the
        // encoded uplink — survivors, partial stragglers, deadline-cut
        // stragglers (the device uploads; the *server* discards the late
        // update: energy burned, update dropped), and uploads the fabric
        // lost after transmission. Only mid-round dropouts never finished
        // sending (`is_dropout` without `net_lost`). Every participant
        // received the full model on the downlink at dispatch.
        let net = encoded_bytes.map(|bytes| {
            let transmitted = (0..participants.len())
                .filter(|&i| !is_dropout[i] || net_lost[i])
                .count() as u64;
            RoundNetStats {
                bytes_uplinked: transmitted * bytes,
                bytes_downlinked: participants.len() as u64
                    * self.config.workload.reference_model_bytes(),
                net_drops,
                partitioned,
            }
        });

        // Adversary accounting for the round record: how many selected
        // participants misbehave, and how many of their surviving updates
        // the server neutralises (free-riders' zero-work updates always;
        // poisoned/scaled updates only under a robust aggregator).
        let (adversarial, flagged) = if self.config.adversary.is_some() {
            let adversarial = self
                .scratch
                .roles
                .iter()
                .filter(|r| r.is_adversarial())
                .count();
            let robust = self.config.algorithm.poison_robustness() > 0.0;
            let flagged = (0..participants.len())
                .filter(|&i| fractions[i] > 0.0)
                .filter(|&i| match self.scratch.roles[i] {
                    AdversaryRole::FreeRider => true,
                    AdversaryRole::Poisoner | AdversaryRole::Scaler => robust,
                    _ => false,
                })
                .count();
            (Some(adversarial), Some(flagged))
        } else {
            (None, None)
        };

        DispatchOutcome {
            record: RoundRecord {
                round,
                participants,
                plans,
                round_time_s,
                active_energy_j,
                idle_energy_j: 0.0,
                accuracy: 0.0,
                dropped,
                update_fractions: fractions,
                dropouts,
                ineligible: ineligible + partitioned,
                dispatch_time_s: 0.0,
                logical_time_s: 0.0,
                mean_staleness: 0.0,
                net,
                adversarial,
                flagged,
            },
            prev_accuracy,
            completion,
            per_participant_energy,
            codec_fidelity,
        }
    }

    /// Applies one aggregation step: folds the surviving updates —
    /// `survivors` with their (possibly staleness-discounted) update
    /// fractions, in `(round, participant-slot)` order — into the global
    /// model and returns the new test accuracy. The scheduler calls it
    /// once per aggregation step: once per cohort under the barrier, once
    /// per buffer flush — with updates that may span several dispatched
    /// cohorts — under buffered aggregation.
    pub(crate) fn aggregate_update(
        &mut self,
        survivors: Vec<DeviceId>,
        mut survivor_fractions: Vec<f64>,
    ) -> f64 {
        // Adversary accounting, before any mass is computed. Free-riders
        // transmitted a zero-work update, so the server holds no usable
        // update mass for them — their fraction is zeroed here, removing
        // them from every downstream statistic exactly like a lost
        // upload. Poisoners and scalers *do* contribute mass, but it is
        // hostile: the severity-weighted share of cohort mass they
        // control becomes the surrogate's poison-impact input (real
        // training applies their actually-corrupted deltas instead).
        // Exactly 0.0 — and no branch taken — when the subsystem is off.
        let mut poison = 0.0f64;
        if let Some(adv) = self.config.adversary {
            let mut total_mass = 0.0f64;
            let mut poisoned_mass = 0.0f64;
            for (id, f) in survivors.iter().zip(survivor_fractions.iter_mut()) {
                let role = adv.role_of(self.config.seed, id.0);
                if role == AdversaryRole::FreeRider {
                    *f = 0.0;
                }
                let w = self.data.partition.device_sample_count(id.0) as f64 * *f;
                total_mass += w;
                poisoned_mass += w * role.poison_severity(adv.scale_factor);
            }
            if total_mass > 0.0 {
                poison = (poisoned_mass / total_mass).clamp(0.0, 1.0);
            }
        }
        let effective_samples: f64 = survivors
            .iter()
            .zip(&survivor_fractions)
            .map(|(id, f)| self.data.partition.device_sample_count(id.0) as f64 * f)
            .sum();
        let survivor_ids: Vec<usize> = if self.config.adversary.is_some() {
            // Zero-mass (free-rider) survivors contributed no gradient,
            // so they must not count toward class coverage either.
            survivors
                .iter()
                .zip(&survivor_fractions)
                .filter(|(_, &f)| f > 0.0)
                .map(|(id, _)| id.0)
                .collect()
        } else {
            survivors.iter().map(|id| id.0).collect()
        };
        #[cfg(debug_assertions)]
        if effective_samples > 0.0 {
            // The aggregation invariant behind partial FedAvg: the
            // survivors' effective sample masses renormalise to weights
            // summing to exactly 1.0.
            let effectives: Vec<f64> = survivors
                .iter()
                .zip(&survivor_fractions)
                .map(|(id, f)| self.data.partition.device_sample_count(id.0) as f64 * f)
                .collect();
            let weights = crate::fleet::survivor_weights(&effectives);
            debug_assert_eq!(
                weights.iter().sum::<f64>().to_bits(),
                1.0f64.to_bits(),
                "partial aggregation must reweight survivors to exactly 1"
            );
        }
        let mean_member_divergence = if effective_samples > 0.0 {
            survivors
                .iter()
                .zip(&survivor_fractions)
                .map(|(id, f)| {
                    let w = self.data.partition.device_sample_count(id.0) as f64 * f;
                    self.data.partition.device_divergence(id.0) * w
                })
                .sum::<f64>()
                / effective_samples
        } else {
            0.0
        };
        let stats = CohortStats {
            participants: survivors,
            update_fractions: survivor_fractions,
            effective_samples,
            class_coverage: self.data.partition.cohort_class_coverage(&survivor_ids),
            divergence: self.data.partition.cohort_divergence(&survivor_ids),
            mean_member_divergence,
            local_epochs: self.config.params.local_epochs,
            batch_size: self.config.params.batch_size,
            poison,
        };
        self.engine.apply_round(&stats)
    }

    /// Runs `selector` until the target accuracy is reached or
    /// `max_rounds`, whichever comes first, and returns the records in
    /// round order, labelled with the selector's name. Policy runs —
    /// tuning, convergence control, observers — go through
    /// [`crate::serve::ExperimentRun`] instead.
    pub fn run(&mut self, selector: &mut dyn Selector) -> SimResult {
        let mut records = Vec::new();
        while let Some(record) = self.step(selector) {
            records.push(record);
        }
        // Concurrent cohorts can complete out of dispatch order; reports
        // expect round order (`logical_time_s` keeps the completion
        // order).
        records.sort_by_key(|r| r.round);
        SimResult {
            policy: selector.name().to_string(),
            target_accuracy: self.config.target(),
            records,
        }
    }

    /// Replaces the global training parameters `(B, E, K)` mid-run — the
    /// mutation hook behind per-round convergence control (the
    /// [`crate::serve::ConvergenceController`] an
    /// [`crate::serve::ExperimentRun`] holds). The surrogate engine's
    /// nominal cohort mass stays pinned to the *initial* parameters, so
    /// tuning `K` shifts the effective-sample factor exactly as fielding
    /// a smaller cohort would.
    pub fn set_params(&mut self, params: GlobalParams) {
        self.config.params = params;
    }

    /// Serializes the simulation's live mutable state — the sequential
    /// engine RNG position, the accuracy engine (global model or
    /// surrogate curve + noise stream), the fleet lifecycle store, the
    /// (possibly controller-tuned) global parameters and the event
    /// scheduler. Everything else (fleet, dataset, scratch, condition
    /// streams) is a deterministic function of [`SimConfig`] and is
    /// rebuilt by [`Simulation::new`] on resume, not checkpointed.
    pub fn state_snapshot(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("rng".to_string(), self.rng.state().to_vec().to_value()),
            ("params".to_string(), self.config.params.to_value()),
            ("engine".to_string(), self.engine.state_snapshot()),
            (
                "fleet_state".to_string(),
                match &self.fleet_state {
                    Some(store) => store.state_snapshot(),
                    None => serde::Value::Null,
                },
            ),
            ("scheduler".to_string(), self.sched.state_snapshot()),
        ])
    }

    /// Restores the state captured by [`Simulation::state_snapshot`] onto
    /// a freshly built simulation of the *same* [`SimConfig`]. After
    /// this, continuing the run reproduces the uninterrupted run bit for
    /// bit (pinned in `tests/checkpoint.rs`). Parameters the config's
    /// [`SimConfig::validate`] rejects, or a scheduler state that is
    /// inconsistent with itself or the fleet, are an error, not a later
    /// panic.
    pub fn state_restore(&mut self, value: &serde::Value) -> Result<(), serde::Error> {
        let rng_words: Vec<u64> = serde::field(value, "rng")?;
        let rng_state: [u64; 4] = rng_words
            .try_into()
            .map_err(|_| serde::Error::custom("engine rng state must have 4 words").at("rng"))?;
        self.rng = SmallRng::from_state(rng_state);
        self.config.params = serde::field(value, "params")?;
        self.config
            .validate()
            .map_err(|e| serde::Error::custom(e.to_string()).at("params"))?;
        self.engine
            .state_restore(serde::field_or_null(value, "engine"))
            .map_err(|e| e.at("engine"))?;
        match (
            &mut self.fleet_state,
            serde::field_or_null(value, "fleet_state"),
        ) {
            (Some(store), v @ serde::Value::Map(_)) => {
                store.state_restore(v).map_err(|e| e.at("fleet_state"))?
            }
            (None, serde::Value::Null) => {}
            (state, v) => {
                return Err(serde::Error::custom(format!(
                    "fleet_state mismatch: config {} dynamics, checkpoint holds {}",
                    if state.is_some() {
                        "enables"
                    } else {
                        "disables"
                    },
                    v.kind(),
                )))
            }
        }
        self.sched = crate::runtime::Scheduler::restore(
            serde::field_or_null(value, "scheduler"),
            self.fleet.len(),
        )
        .map_err(|e| e.at("scheduler"))?;
        Ok(())
    }
}

/// Mixes the master seed and the round index into the seed of the round's
/// per-device condition streams (SplitMix64 finalizer, so neighbouring
/// rounds land far apart in seed space).
fn round_stream_seed(seed: u64, round: usize) -> u64 {
    let mut z = seed
        .wrapping_add(0x001c_0d17_1015_u64)
        .wrapping_add((round as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Median via a caller-provided sort buffer (no per-call allocation).
fn median_into(scratch: &mut Vec<f64>, values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    scratch.clear();
    scratch.extend_from_slice(values);
    scratch.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    let mid = scratch.len() / 2;
    if scratch.len() % 2 == 1 {
        scratch[mid]
    } else {
        (scratch[mid - 1] + scratch[mid]) / 2.0
    }
}

/// Panics unless every id of `participants` names a device of the
/// `devices`-strong fleet and appears once, naming `selector` and the
/// offending id. A repeated id would count its device's active energy
/// twice and stall the fleet store's end-of-round cursor. `ids` is a
/// caller-provided sort buffer (no per-call allocation).
fn check_cohort(ids: &mut Vec<usize>, participants: &[DeviceId], devices: usize, selector: &str) {
    ids.clear();
    ids.extend(participants.iter().map(|id| id.0));
    ids.sort_unstable();
    if let Some(&last) = ids.last() {
        assert!(
            last < devices,
            "selector `{selector}` chose device {last}, outside the {devices}-device fleet"
        );
    }
    if let Some(pair) = ids.windows(2).find(|pair| pair[0] == pair[1]) {
        panic!("selector `{selector}` chose device {} twice", pair[0]);
    }
}

/// The paper's 15/35/50% tier mix of `n ≥ 1` devices as (high, mid, low)
/// counts; at 200 devices it is exactly `Fleet::paper_fleet`. The high
/// and the low tier hold at least one device each, the low one only
/// while the high one leaves room: one device is one high-end device.
fn tier_mix(n: usize) -> (usize, usize, usize) {
    let h = (n * 15 / 100).max(1);
    let l = (n * 50 / 100).max(1).min(n - h);
    (h, n - h - l, l)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selection::{ClusterSelector, RandomSelector};

    #[test]
    fn every_fleet_size_builds_its_tier_mix() {
        let counts = |sim: &Simulation| {
            [DeviceTier::High, DeviceTier::Mid, DeviceTier::Low]
                .map(|tier| sim.fleet().ids_of_tier(tier).len())
        };
        // One device with K = 1 validates, so it must build and run.
        let mut config = SimConfig::tiny_test(3);
        config.num_devices = 1;
        config.params.num_participants = 1;
        config.max_rounds = 2;
        assert_eq!(config.validate(), Ok(()));
        let mut sim = Simulation::new(config.clone());
        assert_eq!(counts(&sim), [1, 0, 0]);
        let record = sim.step(&mut RandomSelector).expect("a round");
        assert_eq!(record.participants, [DeviceId(0)]);
        // Every larger fleet keeps the split it always had.
        for n in 2..=300 {
            config.num_devices = n;
            let (h, l) = ((n * 15 / 100).max(1), (n * 50 / 100).max(1));
            assert_eq!(counts(&Simulation::new(config.clone())), [h, n - h - l, l]);
        }
    }

    /// Chooses the same ids every round, each on a mid-tier CPU-max plan
    /// (an id outside the fleet has no tier to read).
    struct Fixed(Vec<usize>);

    impl Selector for Fixed {
        fn select(&mut self, _: &RoundContext<'_>, _: &mut SmallRng) -> SelectionDecision {
            SelectionDecision {
                participants: self.0.iter().map(|&i| DeviceId(i)).collect(),
                plans: vec![ExecutionPlan::cpu_max(DeviceTier::Mid); self.0.len()],
            }
        }

        fn name(&self) -> &'static str {
            "fixed"
        }
    }

    #[test]
    #[should_panic(expected = "selector `fixed` chose device 0 twice")]
    fn a_selection_naming_a_device_twice_is_refused() {
        Simulation::new(SimConfig::tiny_test(1)).run(&mut Fixed(vec![0, 0, 5]));
    }

    #[test]
    #[should_panic(expected = "selector `fixed` chose device 12, outside the 12-device fleet")]
    fn a_selection_naming_a_device_outside_the_fleet_is_refused() {
        Simulation::new(SimConfig::tiny_test(1)).run(&mut Fixed(vec![3, 12]));
    }

    #[test]
    fn tiny_simulation_runs_and_converges() {
        let mut sim = Simulation::new(SimConfig::tiny_test(1));
        let result = sim.run(&mut RandomSelector::new());
        assert!(!result.records.is_empty());
        assert!(result.converged(), "final acc {}", result.final_accuracy());
        assert!(result.energy_to_target_j() > 0.0);
        assert!(result.time_to_target_s() > 0.0);
    }

    #[test]
    fn a_200_device_simulation_holds_the_paper_fleet() {
        let mut config = SimConfig::paper_default(Workload::CnnMnist);
        config.num_devices = 200;
        config.seed = 23;
        let sim = Simulation::new(config);
        let paper = Fleet::paper_fleet(23);
        assert_eq!(sim.fleet().len(), paper.len());
        for (built, expected) in sim.fleet().iter().zip(paper.iter()) {
            assert_eq!(built.id(), expected.id());
            assert_eq!(built.tier(), expected.tier());
            assert_eq!(
                built.interference_propensity().to_bits(),
                expected.interference_propensity().to_bits()
            );
            assert_eq!(
                built.weak_signal_propensity().to_bits(),
                expected.weak_signal_propensity().to_bits()
            );
        }
    }

    #[test]
    fn simulation_is_deterministic_per_seed() {
        let run = || {
            let mut sim = Simulation::new(SimConfig::tiny_test(7));
            sim.run(&mut RandomSelector::new())
        };
        let (a, b) = (run(), run());
        assert_eq!(a.records.len(), b.records.len());
        for (ra, rb) in a.records.iter().zip(b.records.iter()) {
            assert_eq!(ra.participants, rb.participants);
            assert_eq!(ra.accuracy, rb.accuracy);
            assert_eq!(ra.total_energy_j(), rb.total_energy_j());
        }
    }

    #[test]
    fn smoke_profile_converges_quickly() {
        let mut sim = Simulation::new(SimConfig::smoke(1));
        let result = sim.run(&mut RandomSelector::new());
        assert!(
            result.converged(),
            "smoke run stalled at {}",
            result.final_accuracy()
        );
        // Pin the fast-smoke contract: convergence must land well inside
        // the 250-round horizon, not scrape against it.
        assert!(
            result.records.len() < 200,
            "smoke profile slowed down: {} rounds",
            result.records.len()
        );
    }

    #[test]
    fn performance_policy_has_faster_rounds_than_power() {
        let mut cfg = SimConfig::paper_default(Workload::CnnMnist);
        cfg.max_rounds = 30;
        let perf = Simulation::new(cfg.clone()).run(&mut ClusterSelector::performance());
        let power = Simulation::new(cfg).run(&mut ClusterSelector::power());
        assert!(
            perf.mean_round_time_s() < power.mean_round_time_s(),
            "perf {} vs power {}",
            perf.mean_round_time_s(),
            power.mean_round_time_s()
        );
    }

    #[test]
    fn fedavg_drops_stragglers_but_fednova_keeps_partial() {
        let mut cfg = SimConfig::paper_default(Workload::CnnMnist);
        cfg.scenario = VarianceScenario::with_interference();
        cfg.max_rounds = 20;
        cfg.straggler_deadline_factor = 1.3;
        let avg = Simulation::new(cfg.clone()).run(&mut RandomSelector::new());
        cfg.algorithm = AggregationAlgorithm::FedNova;
        let nova = Simulation::new(cfg).run(&mut RandomSelector::new());
        let drops = |r: &SimResult| -> usize { r.records.iter().map(|x| x.dropped.len()).sum() };
        assert!(drops(&avg) > 0, "interference should create stragglers");
        assert_eq!(drops(&nova), 0, "FedNova accepts partial updates");
    }

    #[test]
    fn round_energy_includes_idle_fleet() {
        let mut sim = Simulation::new(SimConfig::tiny_test(3));
        let rec = sim.step(&mut RandomSelector::new()).expect("round 0");
        assert!(rec.idle_energy_j > 0.0);
        assert!(rec.active_energy_j > 0.0);
        assert_eq!(rec.participants.len(), 4);
    }

    #[test]
    fn disabled_fleet_block_reports_a_static_available_fleet() {
        let mut cfg = SimConfig::tiny_test(5);
        cfg.max_rounds = 6;
        cfg.target_accuracy = Some(1.1);
        let result = Simulation::new(cfg).run(&mut RandomSelector::new());
        for rec in &result.records {
            assert!(rec.dropouts.is_empty(), "static fleets never drop out");
            assert_eq!(rec.ineligible, 0, "static fleets are always eligible");
        }
    }

    #[test]
    fn fleet_dynamics_create_dropouts_churn_and_reweighted_survivors() {
        let mut cfg = SimConfig::smoke(8);
        cfg.max_rounds = 30;
        cfg.target_accuracy = Some(1.1);
        cfg.fleet = Some(crate::fleet::FleetDynamics::with_dropout_rate(0.4));
        let result = Simulation::new(cfg).run(&mut RandomSelector::new());
        let dropouts: usize = result.records.iter().map(|r| r.dropouts.len()).sum();
        assert!(dropouts > 0, "40% churn must produce mid-round dropouts");
        assert!(
            result.records.iter().any(|r| r.ineligible > 0),
            "sessions and battery gates must make some devices ineligible"
        );
        for rec in &result.records {
            for id in &rec.dropouts {
                assert!(
                    rec.participants.contains(id),
                    "dropout outside the selection"
                );
                assert!(
                    !rec.dropped.contains(id),
                    "dropouts and stragglers must stay disjoint"
                );
                let i = rec.participants.iter().position(|p| p == id).unwrap();
                assert_eq!(
                    rec.update_fractions[i], 0.0,
                    "a dropout contributes no update"
                );
            }
            assert_eq!(
                rec.survivors().len(),
                rec.participants.len() - rec.dropouts.len() - rec.dropped.len(),
                "survivors = participants minus dropouts minus stragglers"
            );
        }
    }

    #[test]
    fn overselect_provisions_extra_participants() {
        let mut cfg = SimConfig::smoke(3);
        cfg.max_rounds = 8;
        cfg.target_accuracy = Some(1.1);
        // Calm dynamics: nobody churns, so the whole fleet is eligible
        // and the over-provisioned K is always realised.
        let calm = crate::fleet::FleetDynamics {
            foreground_prob: 0.0,
            offline_prob: 0.0,
            mid_round_drop_prob: 0.0,
            initial_soc_min: 1.0,
            initial_soc_max: 1.0,
            ..crate::fleet::FleetDynamics::realistic()
        };
        cfg.fleet = Some(calm.straggler(crate::fleet::StragglerPolicy::OverSelect { extra: 5 }));
        let k = cfg.params.num_participants;
        let result = Simulation::new(cfg).run(&mut RandomSelector::new());
        for rec in &result.records {
            assert_eq!(rec.participants.len(), k + 5, "round {}", rec.round);
        }
    }

    #[test]
    fn overselect_clamps_to_the_eligible_pool_under_dynamics() {
        // Validation rejects K + extra > N, so the fleet size never
        // binds at dispatch; under dynamics the advertised cohort is
        // bounded by the round's *eligible* pool instead — never a
        // promise the policy cannot realise.
        let mut cfg = SimConfig::smoke(9);
        cfg.max_rounds = 12;
        cfg.target_accuracy = Some(1.1);
        let stormy = crate::fleet::FleetDynamics {
            foreground_prob: 0.5,
            offline_prob: 0.4,
            ..crate::fleet::FleetDynamics::realistic()
        };
        cfg.fleet = Some(stormy.straggler(crate::fleet::StragglerPolicy::OverSelect { extra: 19 }));
        let n = cfg.num_devices;
        let k = cfg.params.num_participants;
        let result = Simulation::new(cfg).run(&mut RandomSelector::new());
        assert!(
            result.records.iter().any(|r| n - r.ineligible < k + 19),
            "dynamics must shrink the eligible pool below K + extra"
        );
        for rec in &result.records {
            assert_eq!(
                rec.participants.len(),
                (n - rec.ineligible).min(k + 19),
                "round {}: cohort must fill min(K + extra, eligible)",
                rec.round
            );
        }
    }

    #[test]
    fn deadline_is_projected_not_truncated_by_dropouts() {
        // The straggler deadline is the median of completion times
        // *projected at dispatch*: a device that dies at 10% of the
        // round still contributes its full projected time, because the
        // server sets the deadline when it hands out work and cannot
        // foresee deaths. Two fleets differing only in mid-round dropout
        // probability therefore cut exactly the same stragglers — minus
        // those that dropped out before the deadline could cut them.
        let run = |drop_prob: f64| {
            let mut cfg = SimConfig::smoke(17);
            cfg.scenario = VarianceScenario::with_interference();
            cfg.straggler_deadline_factor = 1.3;
            let calm = crate::fleet::FleetDynamics {
                foreground_prob: 0.0,
                offline_prob: 0.0,
                initial_soc_min: 1.0,
                initial_soc_max: 1.0,
                mid_round_drop_prob: drop_prob,
                ..crate::fleet::FleetDynamics::realistic()
            };
            cfg.fleet = Some(calm.straggler(crate::fleet::StragglerPolicy::Drop));
            Simulation::new(cfg)
                .step(&mut RandomSelector::new())
                .expect("round 0")
        };
        let without = run(0.0);
        let with = run(0.9);
        assert_eq!(
            without.participants, with.participants,
            "dropout probability must not perturb dispatch"
        );
        assert!(!with.dropouts.is_empty(), "90% churn must kill devices");
        assert!(
            !without.dropped.is_empty(),
            "interference must create stragglers"
        );
        let expected: Vec<DeviceId> = without
            .dropped
            .iter()
            .copied()
            .filter(|id| !with.dropouts.contains(id))
            .collect();
        assert_eq!(
            with.dropped, expected,
            "dropouts must not move the deadline for the survivors"
        );
    }

    #[test]
    fn wait_bounded_keeps_updates_that_drop_would_cut() {
        let mut cfg = SimConfig::smoke(6);
        cfg.scenario = VarianceScenario::with_interference();
        cfg.straggler_deadline_factor = 1.3;
        cfg.max_rounds = 15;
        cfg.target_accuracy = Some(1.1);
        let calm = crate::fleet::FleetDynamics {
            foreground_prob: 0.0,
            offline_prob: 0.0,
            mid_round_drop_prob: 0.0,
            ..crate::fleet::FleetDynamics::realistic()
        };
        let misses = |straggler| {
            let mut cfg = cfg.clone();
            cfg.fleet = Some(calm.clone().straggler(straggler));
            let result = Simulation::new(cfg).run(&mut RandomSelector::new());
            result
                .records
                .iter()
                .map(|r| r.dropped.len())
                .sum::<usize>()
        };
        let dropped = misses(crate::fleet::StragglerPolicy::Drop);
        let waited = misses(crate::fleet::StragglerPolicy::WaitBounded { grace: 2.0 });
        assert!(dropped > 0, "interference must create stragglers");
        assert!(
            waited < dropped,
            "waiting must keep updates: {waited} vs {dropped}"
        );
    }
}
