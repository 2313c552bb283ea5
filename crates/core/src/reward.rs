//! The AutoFL reward function (Eqs. 5–7 of the paper).

use serde::{Deserialize, Serialize};

// Weight α of the absolute accuracy term and weight β of the
// accuracy-improvement (convergence-speed) term of Eq. (7).
//
// The paper does not publish α and β; these values were calibrated so
// that the energy terms differentiate devices within a round while the
// accuracy-improvement term dominates across rounds (the condition for
// convergence-aware selection).
const ALPHA: f64 = 1.0;
const BETA: f64 = 5.0;

/// The joules one reward unit of each energy term of Eq. (7) represents.
/// The agent resolves both from the workload's nominal per-device round
/// energy at its first selection.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RewardScales {
    /// Joules represented by one reward unit of `R_energy_global`.
    pub global_energy_scale_j: f64,
    /// Joules represented by one reward unit of `R_energy_local`.
    pub local_energy_scale_j: f64,
}

/// Inputs of one device's reward for one round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RewardInputs {
    /// `R_energy_local` in joules: `E_comp + E_comm` for a selected device,
    /// `E_idle` otherwise (Eq. 5).
    pub local_energy_j: f64,
    /// `R_energy_global` in joules: fleet-wide energy of the round (Eq. 6).
    pub global_energy_j: f64,
    /// Test accuracy after the round, in `[0, 1]`.
    pub accuracy: f64,
    /// Test accuracy before the round, in `[0, 1]`.
    pub prev_accuracy: f64,
}

/// Computes Eq. (7).
///
/// If the round failed to improve accuracy the reward is
/// `R_accuracy − 100` (accuracy expressed in percent, i.e. its distance
/// below 100%), steering the agent away from the action; otherwise it is
/// `−R_energy_global − R_energy_local + α·R_accuracy +
/// β·(R_accuracy − R_accuracy_prev)`, each energy term in units of its
/// scale.
pub fn reward(scales: &RewardScales, inputs: &RewardInputs) -> f64 {
    let acc_pct = inputs.accuracy * 100.0;
    let prev_pct = inputs.prev_accuracy * 100.0;
    if acc_pct - prev_pct <= 0.0 {
        return acc_pct - 100.0;
    }
    -(inputs.global_energy_j / scales.global_energy_scale_j)
        - (inputs.local_energy_j / scales.local_energy_scale_j)
        + ALPHA * acc_pct
        + BETA * (acc_pct - prev_pct)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCALES: RewardScales = RewardScales {
        global_energy_scale_j: 150.0,
        local_energy_scale_j: 2.0,
    };

    fn base_inputs() -> RewardInputs {
        RewardInputs {
            local_energy_j: 50.0,
            global_energy_j: 2_000.0,
            accuracy: 0.82,
            prev_accuracy: 0.80,
        }
    }

    #[test]
    fn failed_improvement_returns_distance_from_100() {
        let mut inputs = base_inputs();
        inputs.accuracy = 0.80;
        inputs.prev_accuracy = 0.80;
        assert_eq!(reward(&SCALES, &inputs), 80.0 - 100.0);
        inputs.accuracy = 0.70;
        assert_eq!(reward(&SCALES, &inputs), 70.0 - 100.0);
    }

    #[test]
    fn improvement_reward_combines_terms() {
        let r = reward(&SCALES, &base_inputs());
        // -2000/150 - 50/2 + 1*82 + 5*2 = -13.33 - 25 + 82 + 10 = 53.67
        assert!((r - (-2000.0 / 150.0 - 25.0 + 82.0 + 10.0)).abs() < 1e-9);
    }

    #[test]
    fn lower_energy_earns_higher_reward() {
        let a = reward(&SCALES, &base_inputs());
        let cheaper = RewardInputs {
            local_energy_j: 10.0,
            ..base_inputs()
        };
        assert!(reward(&SCALES, &cheaper) > a);
        let global_cheaper = RewardInputs {
            global_energy_j: 500.0,
            ..base_inputs()
        };
        assert!(reward(&SCALES, &global_cheaper) > a);
    }

    #[test]
    fn faster_convergence_earns_higher_reward() {
        let slow = reward(&SCALES, &base_inputs());
        let fast = reward(
            &SCALES,
            &RewardInputs {
                accuracy: 0.85,
                ..base_inputs()
            },
        );
        assert!(fast > slow);
    }

    #[test]
    fn failed_rounds_rank_below_successes_at_the_same_accuracy() {
        // At a given accuracy level, a round that improved the model beats
        // one that did not (Eq. 7's branch structure).
        let fail = reward(
            &SCALES,
            &RewardInputs {
                accuracy: 0.10,
                prev_accuracy: 0.10,
                ..base_inputs()
            },
        );
        let success = reward(
            &SCALES,
            &RewardInputs {
                accuracy: 0.101,
                prev_accuracy: 0.10,
                local_energy_j: 60.0,
                global_energy_j: 3_000.0,
            },
        );
        assert!(success > fail, "success {} vs fail {}", success, fail);
    }
}
