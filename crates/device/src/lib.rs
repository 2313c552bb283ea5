//! # autofl-device
//!
//! The mobile-system substrate of the AutoFL reproduction: everything the
//! paper measures on real phones and EC2 instances, rebuilt as an
//! analytical model.
//!
//! * [`tier`] — the H/M/L device categories with the paper's Table 2/3
//!   constants (GFLOPS, RAM, peak power, V-F step counts).
//! * [`dvfs`] — per-target DVFS tables: frequency, busy power (cubic law),
//!   throughput; the augmented second-level action space of AutoFL.
//! * [`network`] — Gaussian bandwidth + signal-strength TX power (Eq. 3).
//! * [`interference`] — web-browsing-shaped co-running app load and its
//!   throughput impact on CPU vs GPU.
//! * [`scenario`] — per-round sampling of which devices see interference /
//!   weak signal (Figures 5 and 10 regimes).
//! * [`fleet`] — the 200-device fleet (30 H / 70 M / 100 L).
//! * [`store`] — sharded structure-of-arrays storage for per-device state
//!   ([`store::shard_extents`]) and the materialised per-round
//!   [`store::ConditionsStore`].
//! * [`lifecycle`] — slow-moving per-device state (battery, charging,
//!   thermal throttle, foreground sessions, connectivity) evolved by the
//!   fleet-dynamics subsystem in `autofl-fed`.
//! * [`cost`] — Eqs. (1)–(4): compute/communication/idle time and energy.
//!
//! # Examples
//!
//! ```
//! use autofl_device::cost::{execute, ExecutionPlan, TrainingTask};
//! use autofl_device::scenario::DeviceConditions;
//! use autofl_device::tier::DeviceTier;
//!
//! let cost = execute(
//!     DeviceTier::High,
//!     ExecutionPlan::cpu_max(DeviceTier::High),
//!     TrainingTask { flops: 1_000_000_000, upload_bytes: 1_000_000 },
//!     &DeviceConditions::ideal(),
//! );
//! assert!(cost.compute_time_s > 0.0 && cost.total_energy_j() > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cost;
pub mod dvfs;
pub mod fleet;
pub mod interference;
pub mod lifecycle;
pub mod network;
pub mod scenario;
pub mod store;
pub mod tier;

pub use cost::{execute, idle_energy_j, ExecutionPlan, RoundCost, TrainingTask};
pub use dvfs::{DvfsTable, ExecutionTarget};
pub use fleet::{Device, DeviceId, Fleet};
pub use interference::Interference;
pub use lifecycle::DeviceLifecycle;
pub use network::{NetworkObservation, SignalStrength};
pub use scenario::{Conditions, DeviceConditions, VarianceScenario};
pub use store::{shard_extents, ConditionsStore};
pub use tier::DeviceTier;
