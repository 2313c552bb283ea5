//! Workspace-level facade for the AutoFL reproduction.
//!
//! Re-exports the public crates so examples and integration tests can use
//! one import root. See the README for the architecture overview and
//! DESIGN.md for the paper-to-module mapping.

pub use autofl_core as core;
pub use autofl_data as data;
pub use autofl_device as device;
pub use autofl_fed as fed;
pub use autofl_nn as nn;

// The experiment-facing API, re-exported flat so a quickstart needs one
// import root: build configs fluently, pick policies by name, observe
// rounds, and persist experiments as spec files.
pub use autofl_core::policy::{standard_registry, AutoFlPolicy, PAPER_POLICIES};
pub use autofl_fed::builder::{ConfigError, SimBuilder};
pub use autofl_fed::engine::{SimConfig, SimResult, Simulation};
pub use autofl_fed::observe::{JsonlSink, RoundObserver};
pub use autofl_fed::policy::{run_policy, Policy, PolicyRegistry};
pub use autofl_fed::spec::ExperimentSpec;
