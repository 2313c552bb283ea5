//! # autofl-core
//!
//! The AutoFL controller — the primary contribution of *"AutoFL: Enabling
//! Heterogeneity-Aware Energy Efficient Federated Learning"* (Kim & Wu,
//! MICRO 2021) — implemented as a [`Selector`] for the `autofl-fed`
//! simulation engine.
//!
//! Per aggregation round the agent:
//!
//! 1. observes the global state (NN layer mix, `(B, E, K)`) and per-device
//!    local states (co-running load, network, data classes) — [`state`],
//! 2. epsilon-greedily chooses the `K` participants with the highest
//!    Q-values and, for each, an execution target + DVFS level — [`action`],
//!    [`controller`],
//! 3. after aggregation computes the Eq. (5)–(7) reward from measured
//!    energies and accuracy — [`mod@reward`] — and updates per-device (or
//!    per-tier shared) Q-tables — [`qtable`].
//!
//! Controller-side costs are tracked in [`overhead`] to reproduce the
//! paper's Section 6.4.
//!
//! # Examples
//!
//! ```
//! use autofl_core::{AutoFl, AutoFlConfig};
//! use autofl_fed::engine::{SimConfig, Simulation};
//!
//! let mut sim = Simulation::new(SimConfig::tiny_test(1));
//! let mut agent = AutoFl::new(AutoFlConfig::default());
//! let result = sim.run(&mut agent);
//! assert!(result.final_accuracy() > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod action;
pub mod controller;
pub mod overhead;
pub mod policy;
pub mod qtable;
pub mod reward;
pub mod state;

pub use action::Action;
pub use controller::{AutoFl, AutoFlConfig};
pub use overhead::Overhead;
pub use policy::{standard_registry, AutoFlPolicy, PAPER_POLICIES};
pub use qtable::{QSharing, QTableSet, RowId};
pub use reward::{reward, RewardInputs, RewardScales};
pub use state::{GlobalState, LocalState, StateSpace};

// Re-exported so examples and benches can name the trait without an extra
// dependency line.
pub use autofl_fed::selection::Selector;
