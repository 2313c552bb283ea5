//! The per-round time/energy cost model (Eqs. 1–4 of the paper).
//!
//! Given a training task (FLOPs and upload bytes), an execution plan
//! (target and DVFS step) and the device's runtime conditions, [`execute`]
//! returns the compute/communication time and energy. The paper validates its
//! latency-based energy estimation at 7.3% MAPE; ours is exact by
//! construction since the same model produces both "measured" and
//! "estimated" values — the RL reward uses these estimates just as the
//! paper's Eq. (5)–(6) do.

use crate::dvfs::{DvfsTable, ExecutionTarget};
use crate::scenario::DeviceConditions;
use crate::tier::DeviceTier;
use serde::{Deserialize, Serialize};

/// The work one participant performs in one aggregation round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrainingTask {
    /// Total training FLOPs: `E × local_samples × training_flops_per_sample`.
    pub flops: u64,
    /// Gradient upload size in bytes.
    pub upload_bytes: u64,
}

/// The second-level action: execution target plus DVFS step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ExecutionPlan {
    /// Which silicon trains.
    pub target: ExecutionTarget,
    /// 1-based V-F step within the target's [`DvfsTable`].
    pub freq_step: u8,
}

impl ExecutionPlan {
    /// Training on `target` at 1-based `step` of its [`DvfsTable`].
    ///
    /// # Panics
    ///
    /// Panics if `step` does not fit the `u8` a plan holds (the largest
    /// table has 23 steps).
    pub fn at_step(target: ExecutionTarget, step: usize) -> Self {
        ExecutionPlan {
            target,
            freq_step: u8::try_from(step).expect("a DVFS step fits in a u8"),
        }
    }

    /// CPU at maximum frequency — the conventional default.
    pub fn cpu_max(tier: DeviceTier) -> Self {
        let table = DvfsTable::for_tier(tier, ExecutionTarget::Cpu);
        ExecutionPlan::at_step(ExecutionTarget::Cpu, table.num_steps())
    }
}

/// Time and energy of one device's round participation.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct RoundCost {
    /// On-device training time in seconds.
    pub compute_time_s: f64,
    /// Gradient upload time in seconds.
    pub comm_time_s: f64,
    /// Computation energy in joules (Eq. 1 / Eq. 2).
    pub compute_energy_j: f64,
    /// Communication energy in joules (Eq. 3).
    pub comm_energy_j: f64,
}

impl RoundCost {
    /// Total wall-clock contribution of this device to the round.
    pub fn total_time_s(&self) -> f64 {
        self.compute_time_s + self.comm_time_s
    }

    /// Total active energy (`E_comp + E_comm`, the selected branch of
    /// Eq. 5).
    pub fn total_energy_j(&self) -> f64 {
        self.compute_energy_j + self.comm_energy_j
    }
}

/// Fraction of nominal throughput left at thermal throttle level `t`
/// (`1.0` when cool, `1 − 0.5 t` when hot): the governor caps frequency,
/// so effective GFLOPS only ever go down.
pub fn throttle_speed_factor(throttle: f64) -> f64 {
    1.0 - 0.5 * throttle
}

/// Fraction of nominal busy power drawn at thermal throttle level `t`.
/// Lower frequency also means lower power, but less than linearly in the
/// lost throughput, so throttled training costs *more* joules per FLOP.
pub fn throttle_power_factor(throttle: f64) -> f64 {
    1.0 - 0.35 * throttle
}

/// Executes a training task on a device and returns its cost.
///
/// Compute time is `FLOPs / (throughput(step) × interference factor ×
/// thermal factor)`; compute energy is `P_busy(f) × t_busy` per
/// Eq. (1)/(2); communication follows Eq. (3) with the sampled bandwidth
/// and signal-dependent TX power.
pub fn execute(
    tier: DeviceTier,
    plan: ExecutionPlan,
    task: TrainingTask,
    conditions: &DeviceConditions,
) -> RoundCost {
    let table = DvfsTable::for_tier(tier, plan.target);
    let factor = match plan.target {
        ExecutionTarget::Cpu => conditions.interference.cpu_throughput_factor(),
        ExecutionTarget::Gpu => conditions.interference.gpu_throughput_factor(),
    };
    let step = usize::from(plan.freq_step);
    let gflops = table.gflops(step) * factor * throttle_speed_factor(conditions.throttle);
    let compute_time_s = task.flops as f64 / (gflops * 1e9);
    let compute_energy_j =
        table.busy_power_w(step) * throttle_power_factor(conditions.throttle) * compute_time_s;
    let comm_time_s = conditions.network.comm_time_s(task.upload_bytes);
    let comm_energy_j = conditions.network.comm_energy_j(task.upload_bytes);
    RoundCost {
        compute_time_s,
        comm_time_s,
        compute_energy_j,
        comm_energy_j,
    }
}

/// Idle energy of a non-selected (or waiting) device over `duration_s`
/// seconds — Eq. (4): `E_idle = P_idle × t_round`.
pub fn idle_energy_j(tier: DeviceTier, duration_s: f64) -> f64 {
    tier.idle_power_w() * duration_s.max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interference::Interference;
    use crate::network::{NetworkObservation, SignalStrength};

    fn task() -> TrainingTask {
        TrainingTask {
            flops: 100_000_000_000, // 100 GFLOP
            upload_bytes: 6_653_480,
        }
    }

    #[test]
    fn high_end_is_faster_than_low_end() {
        let c = DeviceConditions::ideal();
        let h = execute(
            DeviceTier::High,
            ExecutionPlan::cpu_max(DeviceTier::High),
            task(),
            &c,
        );
        let l = execute(
            DeviceTier::Low,
            ExecutionPlan::cpu_max(DeviceTier::Low),
            task(),
            &c,
        );
        let ratio = l.compute_time_s / h.compute_time_s;
        assert!(
            (2.5..3.5).contains(&ratio),
            "H/L training-time ratio {}",
            ratio
        );
    }

    #[test]
    fn low_end_draws_less_power_but_may_use_more_energy() {
        // Section 3.1: low-end power is ~46.4% of high-end; whether energy
        // wins depends on the workload balance.
        let p_low = DeviceTier::Low.cpu_peak_power_w() / DeviceTier::High.cpu_peak_power_w();
        assert!((0.6..0.7).contains(&p_low));
    }

    #[test]
    fn interference_slows_cpu_execution() {
        let calm = DeviceConditions::ideal();
        let busy = DeviceConditions {
            interference: Interference {
                co_cpu: 0.8,
                co_mem: 0.5,
            },
            ..DeviceConditions::ideal()
        };
        let plan = ExecutionPlan::cpu_max(DeviceTier::Mid);
        let a = execute(DeviceTier::Mid, plan, task(), &calm);
        let b = execute(DeviceTier::Mid, plan, task(), &busy);
        assert!(b.compute_time_s > 2.0 * a.compute_time_s);
    }

    #[test]
    fn weak_network_multiplies_comm_cost() {
        let strong = DeviceConditions::ideal();
        let weak = DeviceConditions {
            network: NetworkObservation {
                signal: SignalStrength::Weak,
                bandwidth_mbps: SignalStrength::Weak.mean_bandwidth_mbps(),
            },
            ..DeviceConditions::ideal()
        };
        let plan = ExecutionPlan::cpu_max(DeviceTier::Mid);
        let a = execute(DeviceTier::Mid, plan, task(), &strong);
        let b = execute(DeviceTier::Mid, plan, task(), &weak);
        // Paper: ~4.3x communication time/energy under weak signal.
        assert!(b.comm_time_s / a.comm_time_s > 4.0);
        assert!(b.comm_energy_j > a.comm_energy_j);
    }

    #[test]
    fn lower_dvfs_step_trades_time_for_energy() {
        let c = DeviceConditions::ideal();
        let table = DvfsTable::for_tier(DeviceTier::High, ExecutionTarget::Cpu);
        let fast = execute(
            DeviceTier::High,
            ExecutionPlan::at_step(ExecutionTarget::Cpu, table.num_steps()),
            task(),
            &c,
        );
        let slow = execute(
            DeviceTier::High,
            ExecutionPlan::at_step(ExecutionTarget::Cpu, table.num_steps() / 2),
            task(),
            &c,
        );
        assert!(slow.compute_time_s > fast.compute_time_s);
        assert!(slow.compute_energy_j < fast.compute_energy_j);
    }

    #[test]
    fn thermal_throttle_slows_and_costs_more_energy_per_flop() {
        let cool = DeviceConditions::ideal();
        let hot = DeviceConditions {
            throttle: 0.8,
            ..DeviceConditions::ideal()
        };
        let plan = ExecutionPlan::cpu_max(DeviceTier::Mid);
        let a = execute(DeviceTier::Mid, plan, task(), &cool);
        let b = execute(DeviceTier::Mid, plan, task(), &hot);
        assert!(b.compute_time_s > a.compute_time_s, "throttling must slow");
        assert!(
            b.compute_energy_j > a.compute_energy_j,
            "lost frequency outweighs the power drop: J/FLOP worsens"
        );
        // Zero throttle is the exact pre-dynamics cost (bit-identical).
        let zero = DeviceConditions {
            throttle: 0.0,
            ..DeviceConditions::ideal()
        };
        let c = execute(DeviceTier::Mid, plan, task(), &zero);
        assert_eq!(a.compute_time_s.to_bits(), c.compute_time_s.to_bits());
        assert_eq!(a.compute_energy_j.to_bits(), c.compute_energy_j.to_bits());
    }

    #[test]
    fn idle_energy_follows_eq4() {
        assert!((idle_energy_j(DeviceTier::High, 10.0) - 2.5).abs() < 1e-9);
        assert_eq!(idle_energy_j(DeviceTier::Low, -1.0), 0.0);
    }

    #[test]
    fn round_time_magnitudes_are_plausible() {
        // CNN-MNIST S1-ish task on a high-end phone should take seconds to
        // tens of seconds, not milliseconds or hours.
        let c = DeviceConditions::ideal();
        let r = execute(
            DeviceTier::High,
            ExecutionPlan::cpu_max(DeviceTier::High),
            TrainingTask {
                flops: 10 * 300 * 73_800_000, // E=10, 300 samples
                upload_bytes: 6_653_480,
            },
            &c,
        );
        assert!(
            (1.0..120.0).contains(&r.compute_time_s),
            "compute {} s",
            r.compute_time_s
        );
    }
}
