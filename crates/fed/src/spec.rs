//! Declarative experiment specifications.
//!
//! An [`ExperimentSpec`] is a JSON-serializable description of a complete
//! experiment: one [`SimConfig`], the list of policy names to run on it,
//! and a repeat count (repeat `i` runs at `config.seed + i`). Checked-in
//! spec files make every figure reproducible from data rather than code —
//! the `spec_run` binary in `autofl-bench` executes one and prints the
//! same normalised rows the figure binaries report.
//!
//! ```
//! use autofl_fed::engine::SimConfig;
//! use autofl_fed::policy::baseline_registry;
//! use autofl_fed::spec::ExperimentSpec;
//!
//! let spec = ExperimentSpec::new(
//!     "doc-smoke",
//!     SimConfig::tiny_test(1),
//!     ["FedAvg-Random", "Performance"],
//!     1,
//! );
//! let json = spec.to_json();
//! let parsed = ExperimentSpec::from_json(&json).unwrap();
//! assert_eq!(parsed, spec);
//! let runs = parsed.run(&baseline_registry()).unwrap();
//! assert_eq!(runs.len(), 2);
//! ```

use crate::builder::ConfigError;
use crate::engine::{SimConfig, SimResult};
use crate::policy::{Policy, PolicyRegistry};
use crate::serve::{ConvergeTarget, ExperimentRun};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// A declarative experiment: config × policies × repeats.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentSpec {
    /// Human-readable experiment name (used in report headers).
    pub name: String,
    /// The simulation configuration every policy runs on.
    pub config: SimConfig,
    /// Registry names of the policies to compare, in reporting order.
    pub policies: Vec<String>,
    /// Number of repeats; repeat `i` uses master seed `config.seed + i`.
    pub repeats: usize,
    /// Optional convergence target: when set, every run of the spec
    /// carries a [`crate::serve::ConvergenceController`] that retunes `K`
    /// each round toward the target — under [`ExperimentSpec::run`],
    /// `spec_run --trace` and the serve daemon alike, since all three
    /// drive a [`crate::serve::ExperimentRun`]. Omitted from the JSON
    /// when `None`, so specs without control stay byte-stable under
    /// `AUTOFL_REGEN_SPECS`.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub control: Option<ConvergeTarget>,
}

/// Why a spec could not be loaded or executed.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The JSON text did not parse into a spec.
    Json(serde::Error),
    /// The embedded configuration is inconsistent.
    Config(ConfigError),
    /// A policy name is not in the registry.
    UnknownPolicy {
        /// The name the spec asked for.
        requested: String,
        /// The names the registry knows.
        known: Vec<String>,
    },
    /// The spec lists no policies.
    NoPolicies,
    /// The spec asks for zero repeats.
    NoRepeats,
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::Json(e) => write!(f, "spec JSON: {e}"),
            SpecError::Config(e) => write!(f, "spec config: {e}"),
            SpecError::UnknownPolicy { requested, known } => write!(
                f,
                "unknown policy `{requested}`; registered: {}",
                known.join(", ")
            ),
            SpecError::NoPolicies => write!(f, "spec lists no policies"),
            SpecError::NoRepeats => write!(f, "spec asks for zero repeats"),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<ConfigError> for SpecError {
    fn from(e: ConfigError) -> Self {
        SpecError::Config(e)
    }
}

/// One completed run of a spec: which policy, which seed, what happened.
#[derive(Debug, Clone)]
pub struct SpecRun {
    /// The policy's registry name.
    pub policy: String,
    /// The master seed of this repeat.
    pub seed: u64,
    /// 0-based repeat index.
    pub repeat: usize,
    /// The simulation outcome.
    pub result: SimResult,
}

impl ExperimentSpec {
    /// Builds a spec from its parts.
    pub fn new<S: Into<String>>(
        name: impl Into<String>,
        config: SimConfig,
        policies: impl IntoIterator<Item = S>,
        repeats: usize,
    ) -> Self {
        ExperimentSpec {
            name: name.into(),
            config,
            policies: policies.into_iter().map(Into::into).collect(),
            repeats,
            control: None,
        }
    }

    /// Attaches a convergence target (see [`ExperimentSpec::control`]).
    pub fn with_control(mut self, target: ConvergeTarget) -> Self {
        self.control = Some(target);
        self
    }

    /// Pretty-printed JSON for checking into a repository.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("spec serializes")
    }

    /// Parses and validates a spec from JSON text (policy names are
    /// checked later, against a concrete registry).
    pub fn from_json(text: &str) -> Result<Self, SpecError> {
        let spec: ExperimentSpec = serde_json::from_str(text).map_err(SpecError::Json)?;
        spec.validate()?;
        Ok(spec)
    }

    /// Registry-independent validation: config consistency, a finite
    /// positive control target, non-empty policy list, at least one
    /// repeat.
    pub fn validate(&self) -> Result<(), SpecError> {
        self.config.validate()?;
        if let Some(target) = self.control {
            target.validate()?;
        }
        if self.policies.is_empty() {
            return Err(SpecError::NoPolicies);
        }
        if self.repeats == 0 {
            return Err(SpecError::NoRepeats);
        }
        Ok(())
    }

    /// Resolves every policy name against `registry`, in spec order.
    pub fn resolve<'r>(
        &self,
        registry: &'r PolicyRegistry,
    ) -> Result<Vec<&'r dyn Policy>, SpecError> {
        self.policies
            .iter()
            .map(|name| {
                registry.get(name).ok_or_else(|| SpecError::UnknownPolicy {
                    requested: name.clone(),
                    known: registry.names().iter().map(|s| s.to_string()).collect(),
                })
            })
            .collect()
    }

    /// Executes the spec: every policy × every repeat (under the spec's
    /// `control`, if any), fanned out across the worker pool, returned
    /// grouped by repeat and then by policy in spec order (the grouping
    /// `comparison`-style normalisation wants). A policy whose tuned
    /// parameters invalidate the config is a [`SpecError::Config`].
    pub fn run(&self, registry: &PolicyRegistry) -> Result<Vec<SpecRun>, SpecError> {
        self.validate()?;
        let policies = self.resolve(registry)?;
        let mut runs: Vec<(usize, &dyn Policy)> = Vec::new();
        for repeat in 0..self.repeats {
            for policy in &policies {
                runs.push((repeat, *policy));
            }
        }
        let runs: Vec<Result<SpecRun, SpecError>> = runs
            .par_iter()
            .map(|(repeat, policy)| {
                let mut config = self.config.clone();
                config.seed = self.config.seed.wrapping_add(*repeat as u64);
                let result = ExperimentRun::new(&config, *policy, self.control)?
                    .finish(&mut [])
                    .expect("a run without observers cannot fail");
                Ok(SpecRun {
                    policy: policy.name().to_string(),
                    seed: config.seed,
                    repeat: *repeat,
                    result,
                })
            })
            .collect();
        runs.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Fidelity;
    use crate::fleet::{FleetDynamics, StragglerPolicy};
    use crate::global::GlobalParams;
    use crate::policy::{baseline_registry, TunedPolicy};
    use crate::selection::RandomSelector;
    use autofl_data::partition::DataDistribution;

    fn spec_fixture() -> ExperimentSpec {
        let mut config = SimConfig::tiny_test(9);
        config.distribution = DataDistribution::non_iid_percent(50);
        config.fidelity = Fidelity::RealTraining {
            lr: 0.08,
            eval_samples: 32,
        };
        config.target_accuracy = Some(0.9);
        // Exercise the fleet block (incl. a data-carrying straggler
        // variant) through the exact-JSON round-trip below.
        config.fleet = Some(
            FleetDynamics::with_dropout_rate(0.25)
                .straggler(StragglerPolicy::OverSelect { extra: 2 }),
        );
        ExperimentSpec::new("fixture", config, ["FedAvg-Random", "C3", "O_FL"], 2)
    }

    #[test]
    fn fleet_block_validation_runs_on_spec_load() {
        let mut spec = spec_fixture();
        if let Some(fleet) = &mut spec.config.fleet {
            fleet.mid_round_drop_prob = 7.0;
        }
        let err = ExperimentSpec::from_json(&spec.to_json()).unwrap_err();
        assert!(
            matches!(
                err,
                SpecError::Config(crate::builder::ConfigError::BadFleetProbability(_))
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn local_epochs_whose_work_overflows_are_refused_on_spec_load() {
        // E = 2^40 used to validate, then panic in `task_for` under
        // overflow checks (and wrap silently in release).
        let mut spec = spec_fixture();
        spec.config.params.local_epochs = 1 << 40;
        let err = ExperimentSpec::from_json(&spec.to_json()).unwrap_err();
        assert_eq!(
            err,
            SpecError::Config(ConfigError::LocalWorkOverflow {
                local_epochs: 1 << 40,
                samples_per_device: spec.config.samples_per_device,
            })
        );
        spec.config.params.local_epochs = 1 << 20;
        assert!(ExperimentSpec::from_json(&spec.to_json()).is_ok());
    }

    #[test]
    fn json_roundtrip_is_exact() {
        let spec = spec_fixture();
        let json = spec.to_json();
        let parsed = ExperimentSpec::from_json(&json).expect("parses");
        assert_eq!(parsed, spec);
        // Serialize → parse → serialize is a fixed point, so checked-in
        // files stay byte-stable under re-export.
        assert_eq!(parsed.to_json(), json);
    }

    #[test]
    fn control_field_roundtrips_and_is_omitted_when_absent() {
        let spec = spec_fixture();
        assert!(
            !spec.to_json().contains("control"),
            "uncontrolled specs must not serialize a control key"
        );
        let controlled = spec.with_control(ConvergeTarget::EnergyBudget {
            joules_per_round: 250.0,
        });
        let json = controlled.to_json();
        let parsed = ExperimentSpec::from_json(&json).expect("parses");
        assert_eq!(parsed, controlled);
        assert_eq!(parsed.to_json(), json);
    }

    #[test]
    fn non_positive_control_targets_are_refused_on_spec_load() {
        for target in [
            ConvergeTarget::EnergyBudget {
                joules_per_round: -250.0,
            },
            ConvergeTarget::AccuracyFloor { accuracy: 0.0 },
        ] {
            let json = spec_fixture().with_control(target).to_json();
            let err = ExperimentSpec::from_json(&json).unwrap_err();
            assert!(
                matches!(err, SpecError::Config(ConfigError::BadControlTarget(_))),
                "got {err:?}"
            );
        }
        // Floors above 1 stay legal, as accuracy targets above 1 do.
        let above_one =
            spec_fixture().with_control(ConvergeTarget::AccuracyFloor { accuracy: 1.5 });
        assert!(ExperimentSpec::from_json(&above_one.to_json()).is_ok());
    }

    #[test]
    fn a_policy_tuned_past_the_fleet_is_a_spec_error_not_a_panic() {
        let mut registry = baseline_registry();
        registry.register(Box::new(TunedPolicy::new(
            "BadK",
            GlobalParams::new(8, 1, 500),
            Box::new(RandomSelector),
        )));
        let mut spec = spec_fixture();
        spec.policies = vec!["BadK".into()];
        let err = spec.run(&registry).unwrap_err();
        assert!(
            matches!(
                err,
                SpecError::Config(ConfigError::ParticipantsExceedFleet { .. })
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn truncated_json_fails_with_a_message_not_a_panic() {
        let json = spec_fixture().to_json();
        let cut = &json[..json.len() / 2];
        let err = ExperimentSpec::from_json(cut).unwrap_err();
        assert!(matches!(err, SpecError::Json(_)), "got {err:?}");
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn type_mismatched_field_names_the_offending_path() {
        let json = spec_fixture()
            .to_json()
            .replace("\"repeats\": 2", "\"repeats\": \"two\"");
        let err = ExperimentSpec::from_json(&json).unwrap_err();
        let msg = err.to_string();
        assert!(matches!(err, SpecError::Json(_)), "got {err:?}");
        assert!(
            msg.contains("repeats"),
            "message should name the field: {msg}"
        );
    }

    #[test]
    fn missing_required_field_is_reported() {
        let err = ExperimentSpec::from_json("{\"name\": \"x\"}").unwrap_err();
        let msg = err.to_string();
        assert!(matches!(err, SpecError::Json(_)), "got {err:?}");
        assert!(
            msg.contains("config"),
            "message should name the field: {msg}"
        );
    }

    #[test]
    fn unknown_policy_is_reported_with_known_names() {
        let mut spec = spec_fixture();
        spec.policies.push("NoSuchPolicy".into());
        let err = spec.run(&baseline_registry()).unwrap_err();
        match err {
            SpecError::UnknownPolicy { requested, known } => {
                assert_eq!(requested, "NoSuchPolicy");
                assert!(known.iter().any(|n| n == "O_FL"));
            }
            other => panic!("wrong error {other:?}"),
        }
    }

    #[test]
    fn invalid_config_and_empty_fields_are_rejected() {
        let mut spec = spec_fixture();
        spec.config.num_devices = 0;
        assert!(matches!(
            spec.validate(),
            Err(SpecError::Config(ConfigError::NoDevices))
        ));

        let mut spec = spec_fixture();
        spec.policies.clear();
        assert_eq!(spec.validate(), Err(SpecError::NoPolicies));

        let mut spec = spec_fixture();
        spec.repeats = 0;
        assert_eq!(spec.validate(), Err(SpecError::NoRepeats));
    }

    #[test]
    fn run_produces_policy_major_rows_per_repeat() {
        let mut spec = spec_fixture();
        spec.config = SimConfig::tiny_test(4);
        spec.config.max_rounds = 3;
        spec.config.target_accuracy = Some(1.1);
        spec.policies = vec!["FedAvg-Random".into(), "Performance".into()];
        spec.repeats = 2;
        let runs = spec.run(&baseline_registry()).expect("runs");
        assert_eq!(runs.len(), 4);
        assert_eq!(
            runs.iter().map(|r| r.policy.as_str()).collect::<Vec<_>>(),
            [
                "FedAvg-Random",
                "Performance",
                "FedAvg-Random",
                "Performance"
            ]
        );
        assert_eq!(runs[0].seed, 4);
        assert_eq!(runs[2].seed, 5);
        assert_eq!(runs[2].repeat, 1);
    }

    #[test]
    fn repeats_change_the_trajectory_deterministically() {
        let mut spec = spec_fixture();
        spec.config = SimConfig::tiny_test(7);
        spec.policies = vec!["FedAvg-Random".into()];
        spec.repeats = 2;
        let a = spec.run(&baseline_registry()).unwrap();
        let b = spec.run(&baseline_registry()).unwrap();
        for (ra, rb) in a.iter().zip(&b) {
            assert_eq!(ra.result.records.len(), rb.result.records.len());
            for (x, y) in ra.result.records.iter().zip(&rb.result.records) {
                assert_eq!(x.participants, y.participants);
            }
        }
        assert_ne!(
            a[0].result.records[0].participants, a[1].result.records[0].participants,
            "different repeat seeds should select differently"
        );
    }
}
