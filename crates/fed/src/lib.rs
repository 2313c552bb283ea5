//! # autofl-fed
//!
//! The federated-learning framework substrate of the AutoFL reproduction:
//!
//! * [`global`] — the `(B, E, K)` parameter sets S1–S4 (Table 5).
//! * [`clusters`] — the characterization compositions C0–C7 (Table 4).
//! * [`algorithms`] — FedAvg plus the comparators FedProx, FedNova, FEDL,
//!   the Byzantine-robust aggregators (coordinate-wise median, trimmed
//!   mean, Krum), and the exact-summation hierarchical aggregation path
//!   ([`algorithms::AggregationAlgorithm::aggregate_sharded`]).
//! * [`adversary`] — opt-in adversarial fleet roles (label-flipping
//!   poisoners, scaled-gradient attackers, free-riders, faulty sensors)
//!   on dedicated tagged RNG streams, countered by the robust
//!   aggregators.
//! * [`conditions`] — the round's per-device runtime conditions, derived
//!   on read ([`conditions::ConditionsView`]) rather than sampled for the
//!   whole fleet.
//! * [`selection`] — the [`selection::Selector`] trait, the
//!   Random/Performance/Power baselines, and the deterministic partial
//!   top-K primitive ([`selection::top_k_by`]).
//! * [`oracle`] — the `O_participant` and `O_FL` oracles.
//! * [`accuracy`] — real-training and surrogate accuracy engines.
//! * [`estimate`] — round-level time/energy estimation (Eqs. 5–6 inputs).
//! * [`fleet`] — stochastic fleet dynamics (battery, thermal, churn,
//!   mid-round dropout) stored in the sharded structure-of-arrays
//!   [`fleet::FleetStore`], the straggler policies
//!   (`Drop`/`WaitBounded`/`OverSelect`) the engine pairs them with, and
//!   the [`fleet::AvailabilityView`] selectors read eligibility through.
//! * [`engine`] — the round simulator with straggler handling and energy
//!   accounting, producing [`engine::SimResult`]s whose `ppw_*` ratios are
//!   the paper's reported numbers.
//! * [`runtime`] — the round driver every run steps
//!   ([`engine::Simulation::step`]): a deterministic discrete-event
//!   scheduler on logical time whose full barrier (the default) is
//!   synchronous FedAvg, with FedBuff-style buffered aggregation of
//!   staleness-weighted updates opt-in ([`runtime::AsyncRuntime`]).
//! * [`fabric`] — the opt-in network fabric between dispatch and
//!   aggregation: per-device link latency/loss on tagged RNG streams,
//!   scripted [`fabric::PartitionSchedule`]s, and communication-efficient
//!   update codecs ([`fabric::CodecSpec`]: top-k, int8/QSGD, optionally
//!   with periodic full-sync) with exact byte accounting wired into the
//!   Eq. 3 comm-energy path.
//!
//! The experiment-facing API layers on top:
//!
//! * [`builder`] — fluent, validating [`builder::SimBuilder`]
//!   construction (`Simulation::builder(workload)…build()`).
//! * [`policy`] — the open [`policy::Policy`] trait (every stateless
//!   selector is its own policy) and the name-addressed
//!   [`policy::PolicyRegistry`] of baselines.
//! * [`observe`] — [`observe::RoundObserver`] hooks and a JSONL sink,
//!   attached through [`serve::ExperimentRun::finish`].
//! * [`spec`] — declarative, serde-backed [`spec::ExperimentSpec`] files.
//! * [`mod@serve`] — [`serve::ExperimentRun`], the one driver of a policy
//!   run: it applies [`policy::Policy::tune`] once at the start, holds the
//!   optional per-round [`serve::ConvergenceController`] that retunes `K`
//!   toward an energy budget or accuracy floor, and checkpoints and
//!   resumes bit-identically. Around it sits the experiment daemon, a
//!   queue of spec files streamed to JSONL traces with crash recovery.
//!
//! # Examples
//!
//! ```
//! use autofl_fed::engine::Simulation;
//! use autofl_fed::global::GlobalParams;
//! use autofl_fed::policy::{baseline_registry, run_policy};
//! use autofl_nn::zoo::Workload;
//!
//! let config = Simulation::builder(Workload::TinyTest)
//!     .devices(12)
//!     .params(GlobalParams::new(8, 1, 4))
//!     .samples_per_device(24)
//!     .test_samples(48)
//!     .max_rounds(60)
//!     .seed(1)
//!     .build_config()
//!     .expect("valid configuration");
//! let registry = baseline_registry();
//! let result = run_policy(&config, registry.expect("FedAvg-Random"));
//! assert!(result.final_accuracy() > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod accuracy;
pub mod adversary;
pub mod algorithms;
pub mod builder;
pub mod clusters;
pub mod conditions;
pub mod engine;
pub mod estimate;
pub mod fabric;
pub mod fleet;
pub mod global;
pub mod observe;
pub mod oracle;
pub mod policy;
pub mod runtime;
pub mod selection;
pub mod serve;
pub mod spec;

pub use adversary::{AdversaryConfig, AdversaryRole};
pub use algorithms::{AggregationAlgorithm, ExactF32Sum};
pub use builder::{ConfigError, SimBuilder};
pub use clusters::CharacterizationCluster;
pub use engine::{Fidelity, RoundRecord, SimConfig, SimResult, Simulation};
pub use fabric::{
    CodecSpec, LinkModel, NetworkFabric, PartitionRule, PartitionSchedule, RoundNetStats,
    UpdateCodec,
};
pub use fleet::{
    survivor_weights, AvailabilityView, DeviceAvailability, FleetDynamics, FleetStore, ShardBin,
    StragglerPolicy,
};
pub use global::GlobalParams;
pub use observe::{JsonlSink, RoundObserver};
pub use oracle::OracleSelector;
pub use policy::{baseline_registry, run_policy, Policy, PolicyRegistry, TunedPolicy};
pub use runtime::{staleness_weight, AsyncRuntime};
pub use selection::{
    top_k_by, ClusterSelector, RandomSelector, RoundContext, RoundFeedback, SelectionDecision,
    Selector,
};
pub use serve::{
    serve, ControllerState, ConvergeTarget, ConvergenceController, ExperimentRun, ServeError,
    ServeOptions, ServeReport, UnitSummary,
};
pub use spec::{ExperimentSpec, SpecError, SpecRun};
