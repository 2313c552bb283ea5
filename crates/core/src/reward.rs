//! The AutoFL reward function (Eqs. 5–7 of the paper).

use serde::{Deserialize, Serialize};

/// Weights and scales of Eq. (7).
///
/// The paper does not publish α and β; these defaults were calibrated so
/// that the energy terms differentiate devices within a round while the
/// accuracy-improvement term dominates across rounds (the condition for
/// convergence-aware selection). Both are exposed for ablation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RewardConfig {
    /// Weight α of the absolute accuracy term.
    pub alpha: f64,
    /// Weight β of the accuracy-improvement (convergence-speed) term.
    pub beta: f64,
    /// Joules represented by one reward unit of `R_energy_global`.
    pub global_energy_scale_j: f64,
    /// Joules represented by one reward unit of `R_energy_local`.
    pub local_energy_scale_j: f64,
    /// Extra penalty subtracted from a device's reward when it missed the
    /// round deadline (energy burned, update dropped or truncated). The
    /// paper's reward penalises stragglers implicitly through energy and
    /// accuracy; this sharpens the signal and defaults to 0 (off).
    pub straggler_penalty: f64,
    /// Extra penalty subtracted when the device vanished mid-round
    /// (battery death or connectivity churn under fleet dynamics).
    /// Defaults to 0 (off).
    pub dropout_penalty: f64,
    /// Penalty per unit of mean update staleness under the event-driven
    /// buffered runtime (`autofl_fed::runtime`): subtracted as
    /// `staleness_penalty × mean_staleness`, steering the agent toward
    /// cohorts whose updates arrive fresh. Lockstep rounds have
    /// staleness 0, and the default 0 reproduces the paper's reward
    /// bit for bit.
    pub staleness_penalty: f64,
    /// Penalty per megabyte the cohort uplinked, subtracted as
    /// `bytes_penalty × uplink_bytes / 1e6`. Byte accounting comes from
    /// the network fabric (`autofl_fed::fabric`); without a fabric the
    /// uplink reads 0, and the default 0 reproduces the paper's reward
    /// bit for bit either way.
    pub bytes_penalty: f64,
}

impl Default for RewardConfig {
    fn default() -> Self {
        RewardConfig {
            alpha: 1.0,
            beta: 5.0,
            global_energy_scale_j: 150.0,
            local_energy_scale_j: 2.0,
            straggler_penalty: 0.0,
            dropout_penalty: 0.0,
            staleness_penalty: 0.0,
            bytes_penalty: 0.0,
        }
    }
}

/// How one device's participation in a round ended — distinguishing a
/// deadline miss (straggler) from a mid-round dropout, which Eq. (7) can
/// penalise separately via [`RewardConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ParticipationOutcome {
    /// The device was not selected this round.
    Idle,
    /// The device finished its update within the deadline.
    #[default]
    Completed,
    /// The device was still selected but missed the round deadline.
    DeadlineMiss,
    /// The device vanished mid-round (battery death or network churn).
    Dropout,
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
    /// How this device's participation ended.
    pub outcome: ParticipationOutcome,
    /// Mean staleness (in global aggregation steps) of the cohort's
    /// updates when they were folded in. Always 0 under the full
    /// barrier; positive only under buffered asynchronous aggregation.
    pub staleness: f64,
    /// Bytes the cohort uplinked this round (encoded updates). Always 0
    /// without a network fabric.
    pub uplink_bytes: f64,
}

/// Computes Eq. (7).
///
/// If the round failed to improve accuracy the reward is
/// `R_accuracy − 100` (accuracy expressed in percent, i.e. its distance
/// below 100%), steering the agent away from the action; otherwise it is
/// `−R_energy_global − R_energy_local + α·R_accuracy +
/// β·(R_accuracy − R_accuracy_prev)`. Either branch additionally
/// subtracts the configured straggler / dropout penalty for devices whose
/// participation failed (both default to 0, which reproduces the paper's
/// reward exactly).
pub fn reward(config: &RewardConfig, inputs: &RewardInputs) -> f64 {
    let penalty = match inputs.outcome {
        ParticipationOutcome::DeadlineMiss => config.straggler_penalty,
        ParticipationOutcome::Dropout => config.dropout_penalty,
        ParticipationOutcome::Idle | ParticipationOutcome::Completed => 0.0,
    } + config.staleness_penalty * inputs.staleness
        + config.bytes_penalty * (inputs.uplink_bytes / 1e6);
    let acc_pct = inputs.accuracy * 100.0;
    let prev_pct = inputs.prev_accuracy * 100.0;
    if acc_pct - prev_pct <= 0.0 {
        return acc_pct - 100.0 - penalty;
    }
    -(inputs.global_energy_j / config.global_energy_scale_j)
        - (inputs.local_energy_j / config.local_energy_scale_j)
        + config.alpha * acc_pct
        + config.beta * (acc_pct - prev_pct)
        - penalty
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_inputs() -> RewardInputs {
        RewardInputs {
            local_energy_j: 50.0,
            global_energy_j: 2_000.0,
            accuracy: 0.82,
            prev_accuracy: 0.80,
            outcome: ParticipationOutcome::Completed,
            staleness: 0.0,
            uplink_bytes: 0.0,
        }
    }

    #[test]
    fn failed_improvement_returns_distance_from_100() {
        let cfg = RewardConfig::default();
        let mut inputs = base_inputs();
        inputs.accuracy = 0.80;
        inputs.prev_accuracy = 0.80;
        assert_eq!(reward(&cfg, &inputs), 80.0 - 100.0);
        inputs.accuracy = 0.70;
        assert_eq!(reward(&cfg, &inputs), 70.0 - 100.0);
    }

    #[test]
    fn improvement_reward_combines_terms() {
        let cfg = RewardConfig::default();
        let r = reward(&cfg, &base_inputs());
        // -2000/150 - 50/2 + 1*82 + 5*2 = -13.33 - 25 + 82 + 10 = 53.67
        assert!((r - (-2000.0 / 150.0 - 25.0 + 82.0 + 10.0)).abs() < 1e-9);
    }

    #[test]
    fn lower_energy_earns_higher_reward() {
        let cfg = RewardConfig::default();
        let a = reward(&cfg, &base_inputs());
        let cheaper = RewardInputs {
            local_energy_j: 10.0,
            ..base_inputs()
        };
        assert!(reward(&cfg, &cheaper) > a);
        let global_cheaper = RewardInputs {
            global_energy_j: 500.0,
            ..base_inputs()
        };
        assert!(reward(&cfg, &global_cheaper) > a);
    }

    #[test]
    fn faster_convergence_earns_higher_reward() {
        let cfg = RewardConfig::default();
        let slow = reward(&cfg, &base_inputs());
        let fast = reward(
            &cfg,
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
        let cfg = RewardConfig::default();
        let fail = reward(
            &cfg,
            &RewardInputs {
                accuracy: 0.10,
                prev_accuracy: 0.10,
                ..base_inputs()
            },
        );
        let success = reward(
            &cfg,
            &RewardInputs {
                accuracy: 0.101,
                prev_accuracy: 0.10,
                local_energy_j: 60.0,
                global_energy_j: 3_000.0,
                outcome: ParticipationOutcome::Completed,
                staleness: 0.0,
                uplink_bytes: 0.0,
            },
        );
        assert!(success > fail, "success {} vs fail {}", success, fail);
    }

    #[test]
    fn zero_penalties_reproduce_the_paper_reward_bit_for_bit() {
        let cfg = RewardConfig::default();
        for outcome in [
            ParticipationOutcome::Idle,
            ParticipationOutcome::Completed,
            ParticipationOutcome::DeadlineMiss,
            ParticipationOutcome::Dropout,
        ] {
            let r = reward(
                &cfg,
                &RewardInputs {
                    outcome,
                    ..base_inputs()
                },
            );
            assert_eq!(
                r.to_bits(),
                reward(&cfg, &base_inputs()).to_bits(),
                "{outcome:?} must not perturb the default reward"
            );
        }
    }

    #[test]
    fn staleness_penalty_scales_linearly_and_defaults_off() {
        let stale = RewardInputs {
            staleness: 3.0,
            ..base_inputs()
        };
        // Off by default: stale updates cost nothing (paper reward).
        let cfg = RewardConfig::default();
        assert_eq!(
            reward(&cfg, &stale).to_bits(),
            reward(&cfg, &base_inputs()).to_bits()
        );
        // On: reward drops by penalty × staleness, in both branches.
        let cfg = RewardConfig {
            staleness_penalty: 2.0,
            ..RewardConfig::default()
        };
        assert_eq!(reward(&cfg, &base_inputs()) - reward(&cfg, &stale), 6.0);
        let flat = RewardInputs {
            accuracy: 0.80,
            ..base_inputs()
        };
        let flat_stale = RewardInputs {
            staleness: 3.0,
            ..flat
        };
        assert_eq!(reward(&cfg, &flat) - reward(&cfg, &flat_stale), 6.0);
    }

    #[test]
    fn bytes_penalty_scales_per_megabyte_and_defaults_off() {
        let heavy = RewardInputs {
            uplink_bytes: 25e6,
            ..base_inputs()
        };
        // Off by default: uplink bytes cost nothing (paper reward).
        let cfg = RewardConfig::default();
        assert_eq!(
            reward(&cfg, &heavy).to_bits(),
            reward(&cfg, &base_inputs()).to_bits()
        );
        // On: reward drops by penalty × megabytes, in both branches.
        let cfg = RewardConfig {
            bytes_penalty: 0.2,
            ..RewardConfig::default()
        };
        assert_eq!(reward(&cfg, &base_inputs()) - reward(&cfg, &heavy), 5.0);
        let flat = RewardInputs {
            accuracy: 0.80,
            ..base_inputs()
        };
        let flat_heavy = RewardInputs {
            uplink_bytes: 25e6,
            ..flat
        };
        assert_eq!(reward(&cfg, &flat) - reward(&cfg, &flat_heavy), 5.0);
    }

    #[test]
    fn nonzero_penalties_rank_failed_participation_below_success() {
        let cfg = RewardConfig {
            straggler_penalty: 10.0,
            dropout_penalty: 25.0,
            ..RewardConfig::default()
        };
        let at = |outcome| {
            reward(
                &cfg,
                &RewardInputs {
                    outcome,
                    ..base_inputs()
                },
            )
        };
        let ok = at(ParticipationOutcome::Completed);
        let miss = at(ParticipationOutcome::DeadlineMiss);
        let gone = at(ParticipationOutcome::Dropout);
        assert!(ok > miss, "deadline miss must cost");
        assert!(miss > gone, "dropout must cost more than a miss");
        assert_eq!(ok - miss, 10.0);
        assert_eq!(ok - gone, 25.0);
    }
}
