//! Runtime-variance scenarios: which devices see interference and weak
//! networks in a given round (Section 5.2 / Figures 5 and 10).

use crate::fleet::{Device, DeviceId, Fleet};
use crate::interference::Interference;
use crate::network::{NetworkObservation, SignalStrength};
use crate::store::ConditionsStore;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Probabilities of per-round runtime variance across the fleet.
///
/// Each device's per-user propensity multiplies these base probabilities,
/// so some users are chronically noisy and an adaptive selector can learn
/// to route around them.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VarianceScenario {
    /// Probability that a device runs an interfering app during a round.
    pub interference_prob: f64,
    /// Probability that a device is on a weak-signal network in a round.
    pub weak_network_prob: f64,
}

impl VarianceScenario {
    /// No interference, stable strong network (Figure 5a / 10a).
    pub fn calm() -> Self {
        VarianceScenario {
            interference_prob: 0.0,
            weak_network_prob: 0.0,
        }
    }

    /// Co-running application interference present (Figure 5b / 10b).
    pub fn with_interference() -> Self {
        VarianceScenario {
            interference_prob: 0.55,
            weak_network_prob: 0.05,
        }
    }

    /// Weak network signal strength (Figure 5c / 10c).
    pub fn weak_network() -> Self {
        VarianceScenario {
            interference_prob: 0.05,
            weak_network_prob: 0.65,
        }
    }

    /// A mixed, in-the-field default.
    pub fn realistic() -> Self {
        VarianceScenario {
            interference_prob: 0.30,
            weak_network_prob: 0.20,
        }
    }

    /// Samples the conditions one device observes during one round.
    pub fn sample(&self, device: &Device, rng: &mut impl Rng) -> DeviceConditions {
        let p_int = (self.interference_prob * device.interference_propensity()).clamp(0.0, 1.0);
        let interference = if p_int > 0.0 && rng.gen_bool(p_int) {
            Interference::web_browsing(rng)
        } else {
            Interference::none()
        };
        let p_weak = (self.weak_network_prob * device.weak_signal_propensity()).clamp(0.0, 1.0);
        let signal = if p_weak > 0.0 && rng.gen_bool(p_weak) {
            SignalStrength::Weak
        } else {
            SignalStrength::Strong
        };
        DeviceConditions {
            interference,
            network: NetworkObservation::sample(signal, rng),
            throttle: 0.0,
        }
    }

    /// Samples device `id`'s conditions for the round whose streams are
    /// keyed by `round_seed` — the one place a device's per-round stream
    /// is derived.
    ///
    /// The stream is seeded from `round_seed` and the raw id alone, so a
    /// device's conditions are a pure function of `(scenario, fleet,
    /// round_seed, id)`: independent of which other devices are sampled,
    /// in what order, on how many threads. This is the per-device-stream
    /// rule the workspace's determinism contract relies on (see
    /// `docs/determinism.md`), and what lets a round derive only the
    /// conditions it reads.
    #[inline]
    pub fn sample_device(&self, fleet: &Fleet, round_seed: u64, id: usize) -> DeviceConditions {
        let mut rng =
            SmallRng::seed_from_u64(round_seed ^ (id as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        self.sample(fleet.device(DeviceId(id)), &mut rng)
    }

    /// Samples the whole fleet's conditions for one round into a sharded
    /// structure-of-arrays store, one shard per parallel task: every
    /// device's [`sample_device`] value, so the store's contents are
    /// independent of its shard count, the thread count and the schedule.
    ///
    /// [`sample_device`]: VarianceScenario::sample_device
    ///
    /// # Panics
    ///
    /// Panics if `out` does not cover exactly `fleet.len()` devices.
    pub fn sample_into(&self, fleet: &Fleet, round_seed: u64, out: &mut ConditionsStore) {
        assert_eq!(out.len(), fleet.len(), "store must cover the fleet");
        out.shards_mut().par_iter_mut().for_each(|shard| {
            for j in 0..shard.len() {
                let c = self.sample_device(fleet, round_seed, shard.offset + j);
                shard.set_lane(j, &c);
            }
        });
    }
}

/// The runtime conditions one device observes during one round — the
/// per-device part of the AutoFL state (Table 1 rows `S_Co_CPU`,
/// `S_Co_MEM`, `S_Network`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeviceConditions {
    /// Co-running app load.
    pub interference: Interference,
    /// Network observation.
    pub network: NetworkObservation,
    /// Thermal throttle level in `[0, 1]` (0 = cool, full frequency).
    /// Scenario sampling always produces 0; the fleet-dynamics subsystem
    /// overlays the device's [`crate::lifecycle::DeviceLifecycle`] level
    /// before costs are executed.
    pub throttle: f64,
}

impl DeviceConditions {
    /// Ideal conditions (no load, strong mean bandwidth). Useful in tests.
    pub fn ideal() -> Self {
        DeviceConditions {
            interference: Interference::none(),
            network: NetworkObservation {
                signal: SignalStrength::Strong,
                bandwidth_mbps: SignalStrength::Strong.mean_bandwidth_mbps(),
            },
            throttle: 0.0,
        }
    }
}

/// Read access to one round's per-device [`DeviceConditions`], indexed by
/// raw device id — what selectors and the cost model see. Implemented by
/// the materialised [`ConditionsStore`] and by views that derive a
/// device's conditions only when it is read.
pub trait Conditions: Sync + std::fmt::Debug {
    /// Device `id`'s conditions this round.
    fn get(&self, id: usize) -> DeviceConditions;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::Fleet;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn calm_scenario_produces_no_interference() {
        let fleet = Fleet::paper_fleet(1);
        let mut rng = SmallRng::seed_from_u64(1);
        let sc = VarianceScenario::calm();
        for d in fleet.iter().take(50) {
            let c = sc.sample(d, &mut rng);
            assert!(!c.interference.is_active());
            assert_eq!(c.network.signal, SignalStrength::Strong);
        }
    }

    #[test]
    fn interference_scenario_hits_about_half_the_fleet() {
        let fleet = Fleet::paper_fleet(2);
        let mut rng = SmallRng::seed_from_u64(2);
        let sc = VarianceScenario::with_interference();
        let active = fleet
            .iter()
            .filter(|d| sc.sample(d, &mut rng).interference.is_active())
            .count();
        assert!(
            (60..=160).contains(&active),
            "{} of 200 devices interfered",
            active
        );
    }

    #[test]
    fn sample_fleet_is_schedule_independent() {
        let fleet = Fleet::paper_fleet(4);
        let sc = VarianceScenario::realistic();
        let sample = |threads: &str, shards: usize, round_seed: u64| {
            std::env::set_var("AUTOFL_THREADS", threads);
            rayon::refresh_thread_count();
            let mut store = ConditionsStore::new(fleet.len(), shards);
            sc.sample_into(&fleet, round_seed, &mut store);
            (0..fleet.len()).map(|i| store.get(i)).collect::<Vec<_>>()
        };
        let prev = std::env::var("AUTOFL_THREADS").ok();
        let seq = sample("1", 1, 0xabcd);
        let par = sample("8", 7, 0xabcd);
        let other = sample("1", 1, 0xabce);
        match prev {
            Some(v) => std::env::set_var("AUTOFL_THREADS", v),
            None => std::env::remove_var("AUTOFL_THREADS"),
        }
        rayon::refresh_thread_count();
        assert_eq!(seq, par);
        // Every bulk value is the device's own on-demand sample.
        for (i, c) in seq.iter().enumerate() {
            assert_eq!(*c, sc.sample_device(&fleet, 0xabcd, i), "device {i}");
        }
        // And a different round seed must change *something*.
        assert_ne!(seq, other);
    }

    #[test]
    fn weak_scenario_mostly_weak_signals() {
        let fleet = Fleet::paper_fleet(3);
        let mut rng = SmallRng::seed_from_u64(3);
        let sc = VarianceScenario::weak_network();
        let weak = fleet
            .iter()
            .filter(|d| sc.sample(d, &mut rng).network.signal == SignalStrength::Weak)
            .count();
        assert!(weak > 80, "{} of 200 on weak signal", weak);
    }
}
