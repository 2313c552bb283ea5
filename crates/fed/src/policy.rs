//! The open [`Policy`] abstraction and its [`PolicyRegistry`].
//!
//! A [`crate::selection::Selector`] is *stateful per run* (learning
//! selectors mutate Q-tables, oracles shuffle), so experiments need a
//! factory that can mint a fresh selector for every `(config, seed)`
//! pair. [`Policy`] is that factory, plus a name for reports and an
//! optional global-parameter tuning hook in the spirit of FedGPO (Kim &
//! Wu): a policy may inspect the configuration and adjust `(B, E, K)`
//! before the run starts.
//!
//! The registry replaces the closed enum that used to live in the bench
//! crate: baselines plug in by registering a `Box<dyn Policy>` under a
//! name, and spec files refer to policies *by that name*, so a new
//! baseline needs no changes to the runner binaries.

use crate::clusters::CharacterizationCluster;
use crate::engine::{SimConfig, SimResult};
use crate::global::GlobalParams;
use crate::oracle::OracleSelector;
use crate::selection::{ClusterSelector, RandomSelector, Selector};
use crate::serve::ExperimentRun;

/// A named, reusable experiment policy: a factory for per-run
/// [`Selector`]s with an optional global-parameter tuning hook.
pub trait Policy: Send + Sync {
    /// Name used in reports, registries and spec files.
    fn name(&self) -> &str;

    /// Mints a fresh selector for one run.
    fn make_selector(&self) -> Box<dyn Selector>;

    /// Optional FedGPO-style hook: inspect the configuration and return
    /// adjusted `(B, E, K)` parameters, or `None` to keep the config's.
    ///
    /// [`ExperimentRun::new`] calls it once, at the start of every run.
    /// The tuned parameters must keep the configuration valid
    /// ([`SimConfig::validate`]); the run re-validates them, and
    /// [`run_policy`] panics otherwise.
    fn tune(&self, config: &SimConfig) -> Option<GlobalParams> {
        let _ = config;
        None
    }
}

impl std::fmt::Debug for dyn Policy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Policy({})", self.name())
    }
}

/// A selector without learned state is its own policy: every run starts
/// from a clone of it, reports under its [`Selector::name`] and keeps the
/// configuration's `(B, E, K)`. The baselines register this way
/// ([`baseline_registry`]); learning selectors such as AutoFL are not
/// `Clone` and implement [`Policy`] on a factory type instead.
impl<S: Selector + Clone + Send + Sync + 'static> Policy for S {
    fn name(&self) -> &str {
        Selector::name(self)
    }

    fn make_selector(&self) -> Box<dyn Selector> {
        Box::new(self.clone())
    }
}

/// Runs one policy on one configuration (applying its tuning hook) and
/// labels the result with the policy's name: an uncontrolled
/// [`ExperimentRun`] run to the end.
///
/// # Panics
///
/// Panics if the configuration is invalid or the policy's
/// [`Policy::tune`] hook produces parameters that invalidate it (e.g.
/// `K` larger than the fleet) — the same invariants every other entry
/// path rejects with a [`crate::builder::ConfigError`].
pub fn run_policy(config: &SimConfig, policy: &dyn Policy) -> SimResult {
    ExperimentRun::new(config, policy, None)
        .unwrap_or_else(|e| {
            panic!(
                "policy `{}` tuned an invalid configuration: {e}",
                policy.name()
            )
        })
        .finish(&mut [])
        .expect("a run without observers cannot fail")
}

/// An ordered, name-addressed collection of policies.
///
/// Registration order is preserved (reports iterate it deterministically);
/// lookups are case-insensitive; re-registering a name replaces the
/// previous entry.
///
/// # Examples
///
/// Resolve a baseline by name and run it:
///
/// ```
/// use autofl_fed::engine::SimConfig;
/// use autofl_fed::policy::{baseline_registry, run_policy};
///
/// let registry = baseline_registry();
/// assert!(registry.len() >= 12); // baselines, oracles, clusters C1–C7
/// let policy = registry.expect("fedavg-random"); // case-insensitive
/// let result = run_policy(&SimConfig::tiny_test(1), policy);
/// assert_eq!(result.policy, "FedAvg-Random");
/// ```
///
/// Plug in a custom baseline — no runner binary changes needed:
///
/// ```
/// use autofl_fed::policy::{Policy, PolicyRegistry};
/// use autofl_fed::selection::{RandomSelector, Selector};
///
/// struct MyPolicy;
/// impl Policy for MyPolicy {
///     fn name(&self) -> &str {
///         "MyPolicy"
///     }
///     fn make_selector(&self) -> Box<dyn Selector> {
///         Box::new(RandomSelector::new())
///     }
/// }
///
/// let mut registry = PolicyRegistry::new();
/// registry.register(Box::new(MyPolicy));
/// assert_eq!(registry.names(), ["MyPolicy"]);
/// ```
#[derive(Default)]
pub struct PolicyRegistry {
    entries: Vec<Box<dyn Policy>>,
}

impl std::fmt::Debug for PolicyRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PolicyRegistry")
            .field("policies", &self.names())
            .finish()
    }
}

impl PolicyRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        PolicyRegistry::default()
    }

    /// Registers a policy under its own name, replacing any previous
    /// policy of the same (case-insensitive) name in place.
    pub fn register(&mut self, policy: Box<dyn Policy>) -> &mut Self {
        let name = policy.name().to_string();
        match self
            .entries
            .iter_mut()
            .find(|p| p.name().eq_ignore_ascii_case(&name))
        {
            Some(slot) => *slot = policy,
            None => self.entries.push(policy),
        }
        self
    }

    /// Looks up a policy by name (case-insensitive).
    pub fn get(&self, name: &str) -> Option<&dyn Policy> {
        self.entries
            .iter()
            .find(|p| p.name().eq_ignore_ascii_case(name))
            .map(|p| p.as_ref())
    }

    /// Like [`PolicyRegistry::get`], but panics with the known names — for
    /// binaries whose policy list is a compile-time constant.
    ///
    /// # Panics
    ///
    /// Panics if no policy has that name.
    pub fn expect(&self, name: &str) -> &dyn Policy {
        self.get(name).unwrap_or_else(|| {
            panic!(
                "unknown policy `{name}`; registered: {}",
                self.names().join(", ")
            )
        })
    }

    /// Registered names, in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|p| p.name()).collect()
    }

    /// Iterates the policies in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &dyn Policy> {
        self.entries.iter().map(|p| p.as_ref())
    }

    /// Number of registered policies.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Wraps another policy with fixed `(B, E, K)` overrides via the
/// [`Policy::tune`] hook — the declarative way to express "this baseline,
/// but run at S1" in a registry or spec file.
pub struct TunedPolicy {
    label: String,
    params: GlobalParams,
    inner: Box<dyn Policy>,
}

impl std::fmt::Debug for TunedPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TunedPolicy")
            .field("label", &self.label)
            .field("params", &self.params)
            .field("inner", &self.inner.name())
            .finish()
    }
}

impl TunedPolicy {
    /// Wraps `inner`, reporting as `label` and forcing `params`.
    pub fn new(label: impl Into<String>, params: GlobalParams, inner: Box<dyn Policy>) -> Self {
        TunedPolicy {
            label: label.into(),
            params,
            inner,
        }
    }
}

impl Policy for TunedPolicy {
    fn name(&self) -> &str {
        &self.label
    }

    fn make_selector(&self) -> Box<dyn Selector> {
        self.inner.make_selector()
    }

    fn tune(&self, _config: &SimConfig) -> Option<GlobalParams> {
        Some(self.params)
    }
}

/// The framework-side baselines: FedAvg-Random, Power, Performance, the
/// two oracles, and every fixed characterization cluster C1–C7 (so
/// cluster sweeps like Figure 4 are expressible as policy names).
///
/// The AutoFL controller lives upstream in `autofl-core`, which layers it
/// on top of this registry as `standard_registry()`.
pub fn baseline_registry() -> PolicyRegistry {
    let mut registry = PolicyRegistry::new();
    registry
        .register(Box::new(RandomSelector::new()))
        .register(Box::new(ClusterSelector::power()))
        .register(Box::new(ClusterSelector::performance()))
        .register(Box::new(OracleSelector::participant()))
        .register(Box::new(OracleSelector::full()));
    for cluster in CharacterizationCluster::fixed() {
        registry.register(Box::new(ClusterSelector::new(cluster)));
    }
    registry
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_registry_serves_the_paper_names() {
        let reg = baseline_registry();
        for name in [
            "FedAvg-Random",
            "Power",
            "Performance",
            "O_participant",
            "O_FL",
        ] {
            let policy = reg.get(name).expect(name);
            assert_eq!(policy.name(), name);
            assert_eq!(policy.make_selector().name(), name);
        }
        for cluster in CharacterizationCluster::fixed() {
            assert!(reg.get(cluster.name()).is_some(), "{}", cluster.name());
        }
    }

    #[test]
    fn lookup_is_case_insensitive_and_replace_works() {
        let mut reg = PolicyRegistry::new();
        reg.register(Box::new(RandomSelector));
        assert!(reg.get("fedavg-random").is_some());
        let before = reg.len();
        reg.register(Box::new(RandomSelector));
        assert_eq!(reg.len(), before, "re-registration must replace");
    }

    #[test]
    fn tuned_policy_overrides_global_params() {
        let tuned = TunedPolicy::new("Random@S1", GlobalParams::s1(), Box::new(RandomSelector));
        let mut cfg = SimConfig::tiny_test(1);
        cfg.params = GlobalParams::new(8, 1, 4);
        assert_eq!(tuned.tune(&cfg), Some(GlobalParams::s1()));
        assert_eq!(tuned.name(), "Random@S1");
    }

    #[test]
    fn run_policy_applies_the_tuning_hook() {
        let tuned = TunedPolicy::new(
            "Random-K2",
            GlobalParams::new(8, 1, 2),
            Box::new(RandomSelector),
        );
        let mut cfg = SimConfig::tiny_test(3);
        cfg.max_rounds = 3;
        cfg.target_accuracy = Some(1.1);
        let result = run_policy(&cfg, &tuned);
        assert_eq!(result.policy, "Random-K2");
        assert!(
            result.records.iter().all(|r| r.participants.len() == 2),
            "tuned K not applied"
        );
    }

    #[test]
    fn untuned_policies_keep_config_params() {
        let cfg = SimConfig::tiny_test(2);
        assert_eq!(RandomSelector.tune(&cfg), None);
    }

    #[test]
    #[should_panic(expected = "tuned an invalid configuration")]
    fn tune_cannot_invalidate_the_config() {
        // K = 500 on a 12-device fleet: the same inconsistency every
        // other entry path rejects must not sneak in through tune().
        let tuned = TunedPolicy::new(
            "BadK",
            GlobalParams::new(8, 1, 500),
            Box::new(RandomSelector),
        );
        let _ = run_policy(&SimConfig::tiny_test(1), &tuned);
    }

    #[test]
    fn observers_see_the_policy_label_not_the_selector_name() {
        use crate::observe::RoundObserver;
        struct CaptureLabel(Option<String>);
        impl RoundObserver for CaptureLabel {
            fn on_converged(&mut self, result: &SimResult) -> std::io::Result<()> {
                self.0 = Some(result.policy.clone());
                Ok(())
            }
        }
        let relabeled = TunedPolicy::new(
            "Random@S-tiny",
            GlobalParams::new(8, 1, 4),
            Box::new(RandomSelector),
        );
        let mut capture = CaptureLabel(None);
        let result = ExperimentRun::new(&SimConfig::tiny_test(1), &relabeled, None)
            .unwrap()
            .finish(&mut [&mut capture])
            .unwrap();
        assert!(result.converged());
        assert_eq!(result.policy, "Random@S-tiny");
        assert_eq!(capture.0.as_deref(), Some("Random@S-tiny"));
    }
}
