//! The two-level AutoFL action space (Section 4.1).
//!
//! Level 1 decides *participation*; level 2 picks the execution target
//! (CPU/GPU) augmented with a DVFS level for participants. Following the
//! paper, DVFS is exposed to the agent as a small set of frequency
//! fractions rather than every raw V-F step, which keeps the Q-table
//! compact; the fraction is mapped to the nearest real step of the
//! device's table at execution time.

use autofl_device::cost::ExecutionPlan;
use autofl_device::dvfs::{DvfsTable, ExecutionTarget};
use autofl_device::tier::DeviceTier;

/// Frequency fractions the agent can choose between (max / eco / deep-eco).
pub const DVFS_LEVELS: [f64; 3] = [1.0, 0.8, 0.6];

/// One device-level action.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Action {
    /// Stay idle this round.
    Idle,
    /// Train on `target` at `DVFS_LEVELS[dvfs_level]` of maximum frequency.
    Train {
        /// Execution target.
        target: ExecutionTarget,
        /// Index into [`DVFS_LEVELS`].
        dvfs_level: u8,
    },
}

impl Action {
    /// Number of distinct actions (idle + 2 targets × 3 DVFS levels).
    pub const COUNT: usize = 1 + 2 * DVFS_LEVELS.len();

    /// All actions, idle first.
    pub fn all() -> Vec<Action> {
        let mut v = vec![Action::Idle];
        for target in ExecutionTarget::all() {
            for lvl in 0..DVFS_LEVELS.len() {
                v.push(Action::Train {
                    target,
                    dvfs_level: lvl as u8,
                });
            }
        }
        v
    }

    /// All participation actions (everything except [`Action::Idle`]).
    pub fn training_actions() -> Vec<Action> {
        Action::all().into_iter().skip(1).collect()
    }

    /// Dense index in `0..Action::COUNT`.
    pub fn index(&self) -> usize {
        match self {
            Action::Idle => 0,
            Action::Train { target, dvfs_level } => {
                let t = match target {
                    ExecutionTarget::Cpu => 0,
                    ExecutionTarget::Gpu => 1,
                };
                1 + t * DVFS_LEVELS.len() + *dvfs_level as usize
            }
        }
    }

    /// Inverse of [`Action::index`].
    ///
    /// # Panics
    ///
    /// Panics if `index >= Action::COUNT`.
    pub fn from_index(index: usize) -> Action {
        assert!(index < Action::COUNT, "action index {} out of range", index);
        if index == 0 {
            return Action::Idle;
        }
        let i = index - 1;
        let target = if i / DVFS_LEVELS.len() == 0 {
            ExecutionTarget::Cpu
        } else {
            ExecutionTarget::Gpu
        };
        Action::Train {
            target,
            dvfs_level: (i % DVFS_LEVELS.len()) as u8,
        }
    }

    /// Whether this action participates in training.
    pub fn participates(&self) -> bool {
        matches!(self, Action::Train { .. })
    }

    /// Concrete execution plan on a given tier.
    ///
    /// # Panics
    ///
    /// Panics if called on [`Action::Idle`].
    pub fn plan_for(&self, tier: DeviceTier) -> ExecutionPlan {
        match self {
            Action::Idle => panic!("idle action has no execution plan"),
            Action::Train { target, dvfs_level } => {
                let table = DvfsTable::for_tier(tier, *target);
                let fraction = DVFS_LEVELS[*dvfs_level as usize];
                ExecutionPlan::at_step(*target, table.step_at_fraction(fraction))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_round_trips() {
        for (i, a) in Action::all().into_iter().enumerate() {
            assert_eq!(a.index(), i);
            assert_eq!(Action::from_index(i), a);
        }
        assert_eq!(Action::all().len(), Action::COUNT);
    }

    #[test]
    fn training_actions_exclude_idle() {
        assert_eq!(Action::training_actions().len(), Action::COUNT - 1);
        assert!(Action::training_actions().iter().all(|a| a.participates()));
    }

    #[test]
    fn plan_maps_fractions_to_real_steps() {
        let a = Action::Train {
            target: ExecutionTarget::Cpu,
            dvfs_level: 0,
        };
        let plan = a.plan_for(DeviceTier::High);
        assert_eq!(plan.freq_step, 23); // max of 23 steps
        let eco = Action::Train {
            target: ExecutionTarget::Cpu,
            dvfs_level: 2,
        };
        let plan = eco.plan_for(DeviceTier::High);
        assert_eq!(plan.freq_step, 14); // 0.6 * 23 ≈ 14
    }

    #[test]
    #[should_panic(expected = "no execution plan")]
    fn idle_has_no_plan() {
        let _ = Action::Idle.plan_for(DeviceTier::Low);
    }
}
