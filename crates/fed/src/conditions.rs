//! One round's per-device runtime conditions, derived when they are read.
//!
//! A device's conditions in a round are a pure function of three inputs:
//! its own `(round_seed, id)` sample stream
//! ([`VarianceScenario::sample_device`]), the thermal throttle its
//! lifecycle carries into the round ([`FleetStore`]), and — on what it
//! *reports* to the server — the faulty-sensor lie on its adversary
//! stream ([`crate::adversary`]). A [`ConditionsView`] holds those inputs
//! and derives a device's conditions on [`Conditions::get`], so a round
//! pays for the devices its selector and cost model read (K for
//! FedAvg-Random, every eligible device for the oracles and AutoFL)
//! instead of sampling and storing the whole fleet. Every value equals
//! the bulk sample ([`VarianceScenario::sample_into`] with the lifecycle
//! throttle laid over it) bit for bit.

use crate::adversary::{adv_stream, AdversaryConfig, AdversaryRole};
use crate::fleet::FleetStore;
use autofl_device::fleet::Fleet;
use autofl_device::scenario::{Conditions, DeviceConditions, VarianceScenario};

/// On-demand [`Conditions`] of one round: the true conditions (what cost
/// execution and link draws see) or, in the engine's reported view, what
/// devices report to selection.
///
/// A view borrows the round's state and stores nothing per device, so
/// building one is free. A read costs one stream derivation; callers that
/// need a device's conditions more than once should keep the value.
#[derive(Debug, Clone, Copy)]
pub struct ConditionsView<'a> {
    scenario: VarianceScenario,
    fleet: &'a Fleet,
    round_seed: u64,
    lifecycle: Option<&'a FleetStore>,
    faulty_sensors: Option<FaultySensors<'a>>,
}

/// Who lies about their conditions, and on which streams.
#[derive(Debug, Clone, Copy)]
struct FaultySensors<'a> {
    adversary: &'a AdversaryConfig,
    seed: u64,
    round: usize,
}

impl<'a> ConditionsView<'a> {
    /// The true conditions of the round whose streams are keyed by
    /// `round_seed`: each device's scenario sample with, under fleet
    /// dynamics, its lifecycle's current throttle level in place of the
    /// sample's zero.
    pub fn new(
        scenario: VarianceScenario,
        fleet: &'a Fleet,
        round_seed: u64,
        lifecycle: Option<&'a FleetStore>,
    ) -> Self {
        ConditionsView {
            scenario,
            fleet,
            round_seed,
            lifecycle,
            faulty_sensors: None,
        }
    }

    /// The conditions devices report in round `round` of a run seeded
    /// `seed`: a faulty sensor ([`AdversaryRole::FaultySensor`]) reports
    /// the always-healthy lie drawn on its adversary stream instead of
    /// anything true; every other device reports the truth. Without
    /// faulty sensors in `adversary` this is the true view unchanged.
    #[must_use]
    pub(crate) fn reported(self, adversary: &'a AdversaryConfig, seed: u64, round: usize) -> Self {
        let faulty_sensors = (adversary.faulty_sensor_fraction > 0.0).then_some(FaultySensors {
            adversary,
            seed,
            round,
        });
        ConditionsView {
            faulty_sensors,
            ..self
        }
    }
}

impl Conditions for ConditionsView<'_> {
    fn get(&self, id: usize) -> DeviceConditions {
        if let Some(f) = &self.faulty_sensors {
            if f.adversary.role_of(f.seed, id) == AdversaryRole::FaultySensor {
                return AdversaryConfig::corrupt_report(&mut adv_stream(f.seed, f.round, id));
            }
        }
        let mut conditions = self.scenario.sample_device(self.fleet, self.round_seed, id);
        if let Some(store) = self.lifecycle {
            conditions.throttle = store.throttle(id);
        }
        conditions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::FleetDynamics;
    use autofl_device::fleet::DeviceId;
    use autofl_device::store::ConditionsStore;
    use autofl_device::tier::DeviceTier;

    /// Heats a fifth of the fleet for a few rounds so that throttle
    /// levels differ from device to device.
    fn heated_lifecycle(fleet: &Fleet, shards: usize) -> FleetStore {
        let dynamics = FleetDynamics::realistic();
        let mut store = FleetStore::new(&dynamics, fleet, 7, shards);
        let cohort: Vec<DeviceId> = (0..fleet.len()).step_by(5).map(DeviceId).collect();
        let busy: Vec<f64> = (0..cohort.len()).map(|i| 20.0 + (i % 7) as f64).collect();
        let energy = vec![1.0; cohort.len()];
        for round in 0..3 {
            store.begin_round(&dynamics, fleet, round);
            store.end_round(&dynamics, fleet, 30.0, &cohort, &busy, &energy);
        }
        store
    }

    /// The view equals the bulk sample plus the lifecycle throttle for
    /// every device, and on the reported view a faulty sensor's value is
    /// its lie — for every scenario, with and without dynamics and faulty
    /// sensors, at any shard and thread count.
    #[test]
    fn view_equals_the_bulk_sample_with_throttle_and_lies() {
        let fleet = Fleet::custom(
            &[
                (DeviceTier::High, 90),
                (DeviceTier::Mid, 210),
                (DeviceTier::Low, 300),
            ],
            3,
        );
        let seed = 11;
        let round = 4;
        let round_seed = 0x5eed_0004;
        let adversary = AdversaryConfig {
            faulty_sensor_fraction: 0.2,
            ..AdversaryConfig::mixed(0.2)
        };
        let prev = std::env::var("AUTOFL_THREADS").ok();
        let mut throttled = 0usize;
        let mut lies = 0usize;
        for threads in ["1", "2"] {
            std::env::set_var("AUTOFL_THREADS", threads);
            rayon::refresh_thread_count();
            for scenario in [
                VarianceScenario::calm(),
                VarianceScenario::realistic(),
                VarianceScenario::with_interference(),
                VarianceScenario::weak_network(),
            ] {
                for shards in [1, 4, 16] {
                    let mut bulk = ConditionsStore::new(fleet.len(), shards);
                    scenario.sample_into(&fleet, round_seed, &mut bulk);
                    let store = heated_lifecycle(&fleet, shards);
                    for lifecycle in [None, Some(&store)] {
                        let truth = ConditionsView::new(scenario, &fleet, round_seed, lifecycle);
                        for faulty in [false, true] {
                            let view = if faulty {
                                truth.reported(&adversary, seed, round)
                            } else {
                                truth
                            };
                            for id in 0..fleet.len() {
                                let mut expect = bulk.get(id);
                                if let Some(store) = lifecycle {
                                    expect.throttle = store.lifecycle(id).throttle;
                                    throttled += usize::from(expect.throttle > 0.0);
                                }
                                if faulty
                                    && adversary.role_of(seed, id) == AdversaryRole::FaultySensor
                                {
                                    expect = AdversaryConfig::corrupt_report(&mut adv_stream(
                                        seed, round, id,
                                    ));
                                    lies += 1;
                                }
                                assert_eq!(
                                    view.get(id),
                                    expect,
                                    "device {id}: {scenario:?}, shards {shards}, threads \
                                     {threads}, dynamics {}, faulty {faulty}",
                                    lifecycle.is_some()
                                );
                            }
                        }
                    }
                }
            }
        }
        match prev {
            Some(v) => std::env::set_var("AUTOFL_THREADS", v),
            None => std::env::remove_var("AUTOFL_THREADS"),
        }
        rayon::refresh_thread_count();
        assert!(throttled > 0, "the heated cohort must carry throttle");
        assert!(lies > 0, "a fifth of the fleet must lie");
    }

    #[test]
    fn reported_view_without_faulty_sensors_is_the_truth() {
        let fleet = Fleet::paper_fleet(2);
        let truth = ConditionsView::new(VarianceScenario::realistic(), &fleet, 99, None);
        let honest = AdversaryConfig::mixed(0.4);
        let reported = truth.reported(&honest, 5, 0);
        assert!(reported.faulty_sensors.is_none());
        for id in 0..fleet.len() {
            assert_eq!(reported.get(id), truth.get(id));
        }
    }
}
